//! CPI (cycles-per-instruction) stack accounting.
//!
//! A CPI stack attributes every simulated cycle to the microarchitectural
//! reason the pipeline could not retire faster: base issue, frontend
//! misprediction recovery, wrong-path fetch interference, the memory level
//! that bounded a dependence chain, or a full window resource. Because
//! attribution telescopes over retire gaps, the components sum *exactly*
//! to the simulated cycle count — an invariant the test suite asserts —
//! so IPC differences between wrong-path techniques can be decomposed into
//! which stall class moved.
//!
//! Cycles are accounted separately per path lane (correct vs. wrong), so
//! wrong-path fetch pollution is visible as its own slice.

use crate::json::Value;

/// The stall class a cycle is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallClass {
    /// Useful issue/retire bandwidth (the "base" CPI component).
    Base,
    /// Recovery after a branch misprediction (redirect + refill).
    FrontendMispredict,
    /// Fetch bandwidth and cache pressure consumed by wrong-path fetch.
    WrongPathFetch,
    /// Dependence chain bounded by an L1 data access.
    L1Bound,
    /// Dependence chain bounded by an L2 access.
    L2Bound,
    /// Dependence chain bounded by a last-level-cache access.
    LlcBound,
    /// Dependence chain bounded by a DRAM access.
    DramBound,
    /// Reorder buffer full.
    RobFull,
    /// Issue queue full.
    IqFull,
    /// Load/store queue full.
    LsqFull,
}

/// All stall classes, in the canonical reporting order.
pub const ALL_CLASSES: [StallClass; 10] = [
    StallClass::Base,
    StallClass::FrontendMispredict,
    StallClass::WrongPathFetch,
    StallClass::L1Bound,
    StallClass::L2Bound,
    StallClass::LlcBound,
    StallClass::DramBound,
    StallClass::RobFull,
    StallClass::IqFull,
    StallClass::LsqFull,
];

impl StallClass {
    /// Stable snake_case label used in JSON exports and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallClass::Base => "base",
            StallClass::FrontendMispredict => "frontend_mispredict",
            StallClass::WrongPathFetch => "wrong_path_fetch",
            StallClass::L1Bound => "l1_bound",
            StallClass::L2Bound => "l2_bound",
            StallClass::LlcBound => "llc_bound",
            StallClass::DramBound => "dram_bound",
            StallClass::RobFull => "rob_full",
            StallClass::IqFull => "iq_full",
            StallClass::LsqFull => "lsq_full",
        }
    }

    fn index(self) -> usize {
        match self {
            StallClass::Base => 0,
            StallClass::FrontendMispredict => 1,
            StallClass::WrongPathFetch => 2,
            StallClass::L1Bound => 3,
            StallClass::L2Bound => 4,
            StallClass::LlcBound => 5,
            StallClass::DramBound => 6,
            StallClass::RobFull => 7,
            StallClass::IqFull => 8,
            StallClass::LsqFull => 9,
        }
    }

    /// Parses the stable snake_case label back into a class (the inverse
    /// of [`StallClass::label`]); `None` for unknown labels.
    #[must_use]
    pub fn from_label(label: &str) -> Option<StallClass> {
        ALL_CLASSES.iter().copied().find(|c| c.label() == label)
    }

    /// Whether this class attributes cycles to a memory level.
    #[must_use]
    pub fn is_memory_bound(self) -> bool {
        matches!(
            self,
            StallClass::L1Bound
                | StallClass::L2Bound
                | StallClass::LlcBound
                | StallClass::DramBound
        )
    }
}

/// Per-class, per-lane cycle accumulator. Lane 0 is the correct path,
/// lane 1 the wrong path (cycles the wrong path stole from fetch).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CpiStack {
    cycles: [[u64; 2]; 10],
}

impl CpiStack {
    /// An empty stack.
    #[must_use]
    pub fn new() -> CpiStack {
        CpiStack::default()
    }

    /// Adds `n` cycles to `class` on the given lane.
    #[inline]
    pub fn add(&mut self, class: StallClass, wrong_path: bool, n: u64) {
        self.cycles[class.index()][usize::from(wrong_path)] += n;
    }

    /// Cycles attributed to `class`, both lanes combined.
    #[must_use]
    pub fn get(&self, class: StallClass) -> u64 {
        let [c, w] = self.cycles[class.index()];
        c + w
    }

    /// Cycles attributed to `class` on one lane.
    #[must_use]
    pub fn get_lane(&self, class: StallClass, wrong_path: bool) -> u64 {
        self.cycles[class.index()][usize::from(wrong_path)]
    }

    /// Total cycles across all classes and lanes. When attribution is
    /// complete this equals the simulated cycle count.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cycles.iter().map(|[c, w]| c + w).sum()
    }

    /// Total cycles on the wrong-path lane.
    #[must_use]
    pub fn total_wrong(&self) -> u64 {
        self.cycles.iter().map(|[_, w]| w).sum()
    }

    /// Folds another stack into this one (campaign-level aggregation).
    pub fn merge(&mut self, other: &CpiStack) {
        for (mine, theirs) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            mine[0] += theirs[0];
            mine[1] += theirs[1];
        }
    }

    /// Non-zero components as `(class, correct_cycles, wrong_cycles)`, in
    /// canonical order.
    pub fn components(&self) -> impl Iterator<Item = (StallClass, u64, u64)> + '_ {
        ALL_CLASSES
            .iter()
            .map(|&class| {
                let [c, w] = self.cycles[class.index()];
                (class, c, w)
            })
            .filter(|&(_, c, w)| c > 0 || w > 0)
    }

    /// Deterministic JSON form: `{"total": N, "components": {label:
    /// [correct, wrong], ...}}`, non-zero components only.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Value::Obj(vec![
            ("total".into(), int(self.total())),
            (
                "components".into(),
                Value::Obj(
                    self.components()
                        .map(|(class, c, w)| {
                            (class.label().to_string(), Value::Arr(vec![int(c), int(w)]))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`CpiStack::to_value`] JSON form back into a stack.
    /// Unknown component labels and malformed lane arrays are ignored;
    /// the stored `total` is recomputed from the parsed components.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<CpiStack> {
        let components = v.get("components")?;
        let Value::Obj(entries) = components else {
            return None;
        };
        let mut stack = CpiStack::new();
        for (label, lanes) in entries {
            let Some(class) = StallClass::from_label(label) else {
                continue;
            };
            let Some(arr) = lanes.as_arr() else { continue };
            let lane = |i: usize| arr.get(i).and_then(Value::as_int).unwrap_or(0).max(0) as u64;
            stack.add(class, false, lane(0));
            stack.add(class, true, lane(1));
        }
        Some(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_indices_are_distinct() {
        let mut labels = std::collections::BTreeSet::new();
        let mut stack = CpiStack::new();
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            assert!(labels.insert(class.label()));
            stack.add(class, false, (i as u64 + 1) * 10);
        }
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(stack.get(class), (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn lanes_and_totals() {
        let mut stack = CpiStack::new();
        stack.add(StallClass::Base, false, 100);
        stack.add(StallClass::WrongPathFetch, true, 30);
        stack.add(StallClass::DramBound, false, 70);
        assert_eq!(stack.total(), 200);
        assert_eq!(stack.total_wrong(), 30);
        assert_eq!(stack.get_lane(StallClass::WrongPathFetch, true), 30);
        assert_eq!(stack.get_lane(StallClass::WrongPathFetch, false), 0);
        assert!(StallClass::DramBound.is_memory_bound());
        assert!(!StallClass::RobFull.is_memory_bound());
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = CpiStack::new();
        a.add(StallClass::Base, false, 5);
        a.add(StallClass::L2Bound, false, 7);
        let mut b = CpiStack::new();
        b.add(StallClass::Base, false, 3);
        b.add(StallClass::WrongPathFetch, true, 2);
        a.merge(&b);
        assert_eq!(a.get(StallClass::Base), 8);
        assert_eq!(a.get(StallClass::L2Bound), 7);
        assert_eq!(a.get_lane(StallClass::WrongPathFetch, true), 2);
        assert_eq!(a.total(), 17);
    }

    #[test]
    fn labels_roundtrip_through_from_label() {
        for &class in &ALL_CLASSES {
            assert_eq!(StallClass::from_label(class.label()), Some(class));
        }
        assert_eq!(StallClass::from_label("no_such_class"), None);
    }

    #[test]
    fn json_roundtrips_through_from_value() {
        let mut stack = CpiStack::new();
        stack.add(StallClass::Base, false, 90);
        stack.add(StallClass::WrongPathFetch, true, 12);
        stack.add(StallClass::DramBound, false, 7);
        let text = stack.to_value().to_json();
        let doc = crate::json::parse(&text).unwrap();
        let back = CpiStack::from_value(&doc).unwrap();
        assert_eq!(back, stack);
        assert!(CpiStack::from_value(&Value::Int(3)).is_none());
    }

    #[test]
    fn json_export_has_total_and_nonzero_components() {
        let mut stack = CpiStack::new();
        stack.add(StallClass::Base, false, 90);
        stack.add(StallClass::FrontendMispredict, false, 10);
        let text = stack.to_value().to_json();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.get("total").and_then(Value::as_int), Some(100));
        let components = doc.get("components").unwrap();
        assert!(components.get("base").is_some());
        assert!(components.get("frontend_mispredict").is_some());
        assert!(
            components.get("dram_bound").is_none(),
            "zero components omitted"
        );
    }
}
