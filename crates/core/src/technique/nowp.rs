//! The no-wrong-path baseline: fetch halts on a misprediction.

use crate::technique::mode::WrongPathMode;
use crate::technique::{MispredictContext, WrongPathTechnique};

/// The functional-first default (paper §IV configuration 1): no wrong-path
/// instructions are modeled; fetch simply halts until the mispredicted
/// branch resolves and redirects.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoWrongPathTechnique;

impl NoWrongPathTechnique {
    /// Creates the baseline technique (stateless).
    #[must_use]
    pub fn new() -> NoWrongPathTechnique {
        NoWrongPathTechnique
    }
}

impl WrongPathTechnique for NoWrongPathTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::NoWrongPath
    }

    fn on_mispredict(&mut self, _cx: &mut MispredictContext<'_>) {
        // Nothing is injected; the resolve/redirect timing alone models
        // the misprediction penalty.
    }
}
