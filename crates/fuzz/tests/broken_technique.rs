//! The oracle's fire drill: register a deliberately broken fifth
//! technique and require the differential check to (a) catch it on
//! generated programs and (b) shrink a divergent program to a tiny
//! repro. If this test ever fails, the fuzzer has gone blind.

use ffsim_core::technique::{passive_frontend, MispredictContext, WrongPathTechnique};
use ffsim_core::{FetchSource, SimConfig, TechniqueRegistry, WrongPathMode};
use ffsim_emu::{CancelCause, Emulator, Fault, StreamEntry};
use ffsim_fuzz::{artifact, gen, shrink, Oracle, Variant};

/// A frontend wrapper that silently drops one correct-path entry — the
/// kind of off-by-one a real technique could introduce while splicing
/// wrong-path instructions into the stream.
#[derive(Debug)]
struct DroppingSource {
    inner: Box<dyn FetchSource>,
    drop_at: u64,
    popped: u64,
}

impl FetchSource for DroppingSource {
    fn pop(&mut self) -> Option<StreamEntry> {
        let mut entry = self.inner.pop();
        self.popped += 1;
        if self.popped == self.drop_at {
            // Swallow this entry and hand out the next one instead.
            entry = self.inner.pop();
        }
        entry
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        self.inner.peek(index)
    }

    fn fault(&self) -> Option<Fault> {
        self.inner.fault()
    }

    fn cancelled(&self) -> Option<CancelCause> {
        self.inner.cancelled()
    }

    fn emulator(&self) -> &Emulator {
        self.inner.emulator()
    }
}

/// "No wrong path" with the dropping frontend bug: architecturally it
/// skips one retired instruction, which the oracle must flag.
#[derive(Debug)]
struct SkippingTechnique;

impl WrongPathTechnique for SkippingTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::NoWrongPath
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        Box::new(DroppingSource {
            inner: passive_frontend(emu, cfg),
            drop_at: 7,
            popped: 0,
        })
    }

    fn on_mispredict(&mut self, _cx: &mut MispredictContext<'_>) {}
}

fn broken_registry() -> TechniqueRegistry {
    let mut registry = TechniqueRegistry::builtin();
    registry.register("skipper", WrongPathMode::NoWrongPath, |_cfg| {
        Box::new(SkippingTechnique)
    });
    registry
}

#[test]
fn oracle_catches_the_broken_technique_and_shrinks_it() {
    let mut oracle = Oracle::with_registry(broken_registry());
    // The baseline variant is enough to expose an instruction-count bug;
    // keeping the matrix small keeps the shrinker fast.
    oracle.variants = vec![Variant::Baseline];

    let mut caught = None;
    for index in 0..32u64 {
        let program = gen::generate(gen::seed_for(0xb0_06, index));
        if let Err(divergence) = oracle.check(&program) {
            caught = Some((program, divergence));
            break;
        }
    }
    let (program, divergence) =
        caught.expect("a dropped stream entry must diverge within 32 programs");
    assert_eq!(
        divergence.label, "skipper",
        "the broken technique is the one flagged: {divergence}"
    );

    let repro = shrink(&program, |candidate| oracle.check(candidate).is_err());
    assert!(
        oracle.check(&repro).is_err(),
        "shrunk program must still reproduce"
    );
    assert!(
        repro.len() <= 16,
        "repro must shrink to <=16 instructions, got {}:\n{}",
        repro.len(),
        artifact::to_text(&repro)
    );

    // The repro survives a round-trip through the .fsm artifact format,
    // so it can be committed as a regression test.
    let text = artifact::to_text(&repro);
    let back = artifact::from_text(&text).expect("artifact round-trips");
    assert!(
        oracle.check(&back).is_err(),
        "artifact round-trip must preserve the divergence"
    );
}

#[test]
fn healthy_registry_stays_clean_under_the_same_seeds() {
    let oracle = Oracle::builtin();
    for index in 0..8u64 {
        let program = gen::generate(gen::seed_for(0xb0_06, index));
        oracle
            .check(&program)
            .unwrap_or_else(|d| panic!("builtin techniques diverged: {d}"));
    }
}
