//! Trait-object smoke test: a fifth, out-of-tree technique registers in
//! the [`TechniqueRegistry`] and runs through the unchanged `Simulator`
//! run loop — the extension seam the strategy layer exists for.

use ffsim_core::{
    ConvergenceStats, MispredictContext, ObsConfig, SimConfig, Simulator, TechniqueRegistry,
    TechniqueStats, WrongPathMode, WrongPathTechnique,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;

/// Injects nothing (so timing matches `nowp` exactly) but counts every
/// misprediction the run loop hands it, reporting the count through the
/// stats seam.
#[derive(Debug, Default)]
struct CountingTechnique {
    mispredicts_seen: u64,
    resolves_seen: u64,
}

impl WrongPathTechnique for CountingTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::NoWrongPath
    }

    fn on_mispredict(&mut self, _cx: &mut MispredictContext<'_>) {
        self.mispredicts_seen += 1;
    }

    fn on_resolve(&mut self, _resolve: u64) {
        self.resolves_seen += 1;
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            convergence: ConvergenceStats {
                branch_misses_checked: self.mispredicts_seen,
                ..ConvergenceStats::default()
            },
            ..TechniqueStats::default()
        }
    }
}

fn branchy_program() -> Program {
    let mut a = Asm::new();
    a.li(Reg::new(1), 200);
    a.label("loop");
    a.addi(Reg::new(2), Reg::new(2), 3);
    a.addi(Reg::new(1), Reg::new(1), -1);
    a.bnez(Reg::new(1), "loop");
    a.halt();
    a.assemble().unwrap()
}

fn cfg_for(mode: WrongPathMode) -> SimConfig {
    let mut cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
    cfg.obs = ObsConfig::disabled();
    cfg
}

#[test]
fn fifth_technique_registers_and_shadows_by_mode() {
    let mut registry = TechniqueRegistry::builtin();
    assert_eq!(registry.len(), 4);
    registry.register("counting", WrongPathMode::NoWrongPath, |_cfg| {
        Box::new(CountingTechnique::default())
    });
    assert_eq!(registry.len(), 5);
    let labels: Vec<&str> = registry.entries().map(|(l, _)| l).collect();
    assert_eq!(
        labels,
        vec!["nowp", "instrec", "conv", "wpemul", "counting"]
    );

    let cfg = cfg_for(WrongPathMode::NoWrongPath);
    let by_label = registry.build("counting", &cfg).expect("registered");
    assert!(
        format!("{by_label:?}").contains("CountingTechnique"),
        "label lookup builds the new technique"
    );
    // Latest registration wins for the mode, so mode-based lookup now
    // resolves to the fifth technique, not the builtin.
    let by_mode = registry
        .build_for_mode(WrongPathMode::NoWrongPath, &cfg)
        .expect("mode is covered");
    assert!(
        format!("{by_mode:?}").contains("CountingTechnique"),
        "latest registration shadows the builtin for its mode"
    );
    // The other modes still resolve to their builtins.
    let untouched = registry
        .build_for_mode(WrongPathMode::WrongPathEmulation, &cfg)
        .expect("builtin");
    assert!(format!("{untouched:?}").contains("EmulationTechnique"));
}

#[test]
fn dummy_technique_runs_through_the_unchanged_loop() {
    let program = branchy_program();
    let cfg = cfg_for(WrongPathMode::NoWrongPath);

    let mut registry = TechniqueRegistry::new();
    registry.register("counting", WrongPathMode::NoWrongPath, |_cfg| {
        Box::new(CountingTechnique::default())
    });
    let technique = registry.build("counting", &cfg).expect("registered");
    let counted = Simulator::with_technique(program.clone(), Memory::new(), cfg.clone(), technique)
        .unwrap()
        .run()
        .unwrap();

    // The run loop hands the technique exactly one on_mispredict per
    // detected misprediction (surfaced via the stats seam).
    assert!(counted.branch.mispredicts() > 0, "workload must mispredict");
    assert_eq!(
        counted.convergence.branch_misses_checked,
        counted.branch.mispredicts(),
        "one hook call per detected misprediction"
    );

    // A technique that injects nothing is timing-identical to the builtin
    // no-wrong-path baseline.
    let baseline = Simulator::new(program, Memory::new(), cfg)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(counted.cycles, baseline.cycles);
    assert_eq!(counted.instructions, baseline.instructions);
    assert_eq!(counted.wrong_path_instructions, 0);
    assert_eq!(counted.state_digest, baseline.state_digest);
}
