//! The four workloads: which DUTs each one checks, under which check
//! configuration, and the known answer every row must match.
//!
//! Testbenches come from the program's own recipes in
//! `autocc_bench::experiments`. The seed only shuffles task order and
//! draws the `banked_device` flush sets; the checker sees nothing but the
//! resulting testbenches.

use autocc_bench::{
    aes_a1_testbench_with, aes_proof_testbench, banked_device, cva6_cex_config,
    cva6_testbench_with, maple_testbench_with, vscale_stage_testbench_with, VscaleStage,
    VSCALE_STAGES,
};
use autocc_bmc::{CheckConfig, CheckMode, Granularity, Isolation};
use autocc_core::{FpvTestbench, FtSpec};
use autocc_duts::aes::{build_aes, AesConfig};
use autocc_duts::cva6::{build_cva6, Cva6Config};
use autocc_duts::demo::config_device;
use autocc_duts::maple::{build_maple, MapleConfig};
use autocc_duts::vscale::{build_vscale, VscaleConfig};
use autocc_hdl::{Instance, Module, ModuleBuilder, NodeId};
use std::collections::BTreeSet;
use std::time::Duration;

/// The registers of `banked_device`, in the order a flush-set mask's bits
/// name them (bit 0 = `bank0`).
pub const BANKED_REGS: [&str; 4] = ["bank0", "bank1", "bank2", "scratch"];

/// How many `banked_device` flush sets each attribution run draws.
const BANKED_DRAWS: usize = 2;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Buggy DUTs, monolithic, in-process, fresh journal plus resume.
    Discover,
    /// Fixed DUTs under `--certify`: bounded checks and k-induction.
    CertifyClean,
    /// Register granularity, in-process: many small cluster jobs.
    Attribute,
    /// The `attribute` job list, each job in an isolated worker process.
    AttributeIsolated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Discover,
        Workload::CertifyClean,
        Workload::Attribute,
        Workload::AttributeIsolated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Discover => "discover",
            Workload::CertifyClean => "certify-clean",
            Workload::Attribute => "attribute",
            Workload::AttributeIsolated => "attribute-isolated",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn granularity(self) -> Granularity {
        match self {
            Workload::Discover | Workload::CertifyClean => Granularity::Monolithic,
            Workload::Attribute | Workload::AttributeIsolated => Granularity::Register,
        }
    }

    pub fn isolated(self) -> bool {
        self == Workload::AttributeIsolated
    }

    /// The campaign's check configuration. Every workload runs one task
    /// at a time (`jobs = 1`); the isolated one runs each job in one
    /// worker process. The wall-clock budget is far above any check here,
    /// so it only turns a wedged solver into a failed row.
    pub fn config(self) -> CheckConfig {
        let depth = match self {
            Workload::Discover => 12,
            Workload::CertifyClean => 16,
            Workload::Attribute | Workload::AttributeIsolated => 12,
        };
        let isolation = if self.isolated() {
            Isolation::Subprocess
        } else {
            Isolation::InProcess
        };
        CheckConfig::default()
            .depth(depth)
            .timeout(Duration::from_secs(120))
            .jobs(1)
            .granularity(self.granularity())
            .isolation(isolation)
            .certify(self == Workload::CertifyClean)
    }

    /// The workload's tasks for `seed`, in run order.
    pub fn tasks(self, seed: u64) -> Vec<TaskSpec> {
        let mut rng = SplitMix64(seed);
        let mut tasks = match self {
            Workload::Discover => buggy_tasks(),
            Workload::CertifyClean => fixed_tasks(),
            Workload::Attribute | Workload::AttributeIsolated => {
                // CVA6 (about 5 s of isolated jobs) is left to `discover`
                // and `certify-clean`, so that an isolated unit is short
                // enough to repeat several times in a run.
                let mut tasks: Vec<TaskSpec> = buggy_tasks()
                    .into_iter()
                    .filter(|t| !matches!(t.recipe, Recipe::Cva6(_)))
                    .collect();
                tasks.extend(banked_draws(
                    &mut rng,
                    BANKED_DRAWS,
                    self.config().max_depth,
                ));
                tasks
            }
        };
        // Fisher-Yates over the seeded generator.
        for i in (1..tasks.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            tasks.swap(i, j);
        }
        tasks
    }
}

/// Which DUT a task elaborates, and with which testbench recipe.
#[derive(Clone, Debug)]
pub enum Recipe {
    /// The quickstart demo device; `fixed` adds its flush and the
    /// state-equality invariants for a proof.
    ConfigDevice { fixed: bool },
    /// The CVA6 frontend under a fix configuration.
    Cva6(Cva6Config),
    /// MAPLE with the M1 assumption in place.
    Maple(MapleConfig),
    /// The default AES testbench (finds A1).
    Aes,
    /// The refined AES testbench for the full proof.
    AesRefined,
    /// The fully refined Vscale testbench (blackboxed CSR).
    VscaleRefined,
    /// `banked_device` with this flush set.
    Banked(BTreeSet<String>),
}

/// The last rung of the Vscale ladder: the fully refined testbench.
fn vscale_proof_stage() -> &'static VscaleStage {
    VSCALE_STAGES
        .iter()
        .find(|s| s.id == "proof")
        .expect("the Vscale ladder ends in its proof stage")
}

impl Recipe {
    /// Elaborates the DUT alone (the `duts` layer). Set-up never needs
    /// it, since `testbench` elaborates its own DUT; the traced run calls
    /// it to time elaboration apart from testbench generation.
    pub fn build_dut(&self) -> Module {
        match self {
            Recipe::ConfigDevice { fixed } => config_device(*fixed),
            Recipe::Cva6(config) => build_cva6(config),
            Recipe::Maple(config) => build_maple(config),
            Recipe::Aes | Recipe::AesRefined => build_aes(&AesConfig::default()),
            Recipe::VscaleRefined => build_vscale(&VscaleConfig {
                blackbox_csr: vscale_proof_stage().blackbox_csr,
                ..VscaleConfig::default()
            }),
            Recipe::Banked(flush_set) => banked_device(flush_set),
        }
    }

    /// Elaborates the DUT and generates its FPV testbench, through the
    /// program's own experiment recipes. The demo and `banked_device`
    /// specs have no public recipe, so they are spelled out here as the
    /// `autocc` CLI and `examples/flush_synthesis.rs` write them. The AES
    /// proof recipe exists at monolithic granularity only.
    pub fn testbench(&self, granularity: Granularity) -> FpvTestbench {
        match self {
            Recipe::Cva6(config) => cva6_testbench_with(config, granularity),
            Recipe::Maple(config) => maple_testbench_with(config, granularity),
            Recipe::Aes => aes_a1_testbench_with(granularity),
            Recipe::AesRefined => aes_proof_testbench(),
            Recipe::VscaleRefined => vscale_stage_testbench_with(vscale_proof_stage(), granularity),
            Recipe::ConfigDevice { fixed: false } => {
                let dut = config_device(false);
                FtSpec::new(&dut).granularity(granularity).generate()
            }
            Recipe::ConfigDevice { fixed: true } => {
                let dut = config_device(true);
                FtSpec::new(&dut)
                    .granularity(granularity)
                    .flush_done(common_flush)
                    .state_equality_invariants()
                    .generate()
            }
            Recipe::Banked(flush_set) => {
                let dut = banked_device(flush_set);
                FtSpec::new(&dut)
                    .granularity(granularity)
                    .flush_done(common_flush)
                    .generate()
            }
        }
    }
}

fn common_flush(b: &mut ModuleBuilder, _ua: &Instance, _ub: &Instance) -> NodeId {
    b.input_node("flush")
        .expect("the DUT declares a common flush input")
}

/// The verdict a row must carry. Violated-assertion names and attributed
/// bit sets are deliberately absent: a correct solver change may pick a
/// different (equally minimal) witness.
#[derive(Clone, Debug)]
pub enum Answer {
    /// A covert channel at exactly this depth. `family` lists root-cause
    /// patterns (`name`, `prefix*` or `*suffix`); at least one diverging
    /// state element must match one of them.
    Cex {
        depth: usize,
        family: &'static [&'static str],
    },
    /// No observable difference within this bound.
    Clean { bound: usize },
    /// Unbounded proof by k-induction at this k.
    Proved { k: usize },
}

impl Answer {
    /// Whether a table row's outcome label and depth column carry this
    /// answer.
    pub fn matches_row(&self, outcome: &str, depth: Option<usize>) -> bool {
        match self {
            Answer::Cex { depth: d, .. } => outcome.starts_with("CEX ") && depth == Some(*d),
            Answer::Clean { bound } => outcome == format!("clean@{bound}") && depth.is_none(),
            Answer::Proved { k } => outcome == format!("proved (k={k})") && depth.is_none(),
        }
    }

    /// Whether a diverging-state element name belongs to the root-cause
    /// family (always true for non-CEX answers).
    pub fn family_matches(&self, names: &[String]) -> bool {
        let Answer::Cex { family, .. } = self else {
            return true;
        };
        names.iter().any(|n| {
            family.iter().any(|pat| {
                if let Some(prefix) = pat.strip_suffix('*') {
                    n.starts_with(prefix)
                } else if let Some(suffix) = pat.strip_prefix('*') {
                    n.ends_with(suffix)
                } else {
                    n == pat
                }
            })
        })
    }
}

/// One task of a workload: a table row, its recipe, its mode and its
/// known answer.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    pub id: String,
    pub description: String,
    pub recipe: Recipe,
    pub mode: CheckMode,
    pub answer: Answer,
    /// Check bound (or k-induction limit) overriding the workload's.
    pub depth: Option<usize>,
}

impl TaskSpec {
    fn new(
        id: &str,
        description: &str,
        recipe: Recipe,
        mode: CheckMode,
        answer: Answer,
    ) -> TaskSpec {
        TaskSpec {
            id: id.to_string(),
            description: description.to_string(),
            recipe,
            mode,
            answer,
            depth: None,
        }
    }

    fn bounded(self, depth: usize) -> TaskSpec {
        TaskSpec {
            depth: Some(depth),
            ..self
        }
    }
}

/// The buggy DUTs: Table 1's C1–C3, M2, M3 and A1 plus the demo device.
/// Depths and root-cause families come from `tests/*_autocc.rs` and
/// EXPERIMENTS.md (see `benchmark/README.md` for where the two disagree).
fn buggy_tasks() -> Vec<TaskSpec> {
    let cex = |depth, family| Answer::Cex { depth, family };
    let check = CheckMode::Check;
    vec![
        TaskSpec::new(
            "D1",
            "config-device: register readable after the switch",
            Recipe::ConfigDevice { fixed: false },
            check,
            cex(7, &["cfg"]),
        ),
        TaskSpec::new(
            "C1",
            "Leaks invalid I-Cache data to the next PC",
            Recipe::Cva6(cva6_cex_config("C1")),
            check,
            cex(12, &["icache.data*"]),
        ),
        TaskSpec::new(
            "C2",
            "Wrong transition in the FSM of the PTW",
            Recipe::Cva6(cva6_cex_config("C2")),
            check,
            cex(9, &["dcache.*", "ptw.*"]),
        ),
        TaskSpec::new(
            "C3",
            "Valid D$ line after flush caused by PTW",
            Recipe::Cva6(cva6_cex_config("C3")),
            check,
            cex(9, &["dcache.*"]),
        ),
        TaskSpec::new(
            "M2",
            "Leak whether the TLB was disabled",
            Recipe::Maple(MapleConfig {
                fix_tlb_enable: false,
                fix_array_base: true,
            }),
            check,
            cex(8, &["tlb_enable"]),
        ),
        TaskSpec::new(
            "M3",
            "Leak the value of a configuration register",
            Recipe::Maple(MapleConfig {
                fix_tlb_enable: true,
                fix_array_base: false,
            }),
            check,
            cex(8, &["array_base"]),
        ),
        TaskSpec::new(
            "A1",
            "Request in the pipeline during the switch",
            Recipe::Aes,
            check,
            cex(9, &["*.valid"]),
        ),
    ]
}

/// The fixed DUTs: every one must come back CLEAN or PROVED.
fn fixed_tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new(
            "C1-C3 fixed",
            "CVA6 microreset with all upstream fixes",
            Recipe::Cva6(Cva6Config::all_fixed()),
            CheckMode::Check,
            Answer::Clean { bound: 10 },
        )
        .bounded(10),
        TaskSpec::new(
            "M2+M3 fixed",
            "MAPLE cleanup resets config registers",
            Recipe::Maple(MapleConfig::all_fixed()),
            CheckMode::Check,
            Answer::Clean { bound: 11 },
        )
        .bounded(11),
        TaskSpec::new(
            "A1 refined",
            "AES with idle-pipeline flush condition",
            Recipe::AesRefined,
            CheckMode::Prove,
            Answer::Proved { k: 1 },
        ),
        TaskSpec::new(
            "Vscale refined",
            "Fully refined Vscale testbench (blackboxed CSR)",
            Recipe::VscaleRefined,
            CheckMode::Prove,
            Answer::Proved { k: 1 },
        ),
        TaskSpec::new(
            "D1 fixed",
            "config-device with a working flush",
            Recipe::ConfigDevice { fixed: true },
            CheckMode::Prove,
            Answer::Proved { k: 5 },
        ),
    ]
}

/// The expected `banked_device` verdict: CLEAN exactly when the flush set
/// covers every readable bank, otherwise a channel through an unflushed
/// bank at `BANKED_CEX_DEPTH`.
pub fn banked_answer(flush_set: &BTreeSet<String>, bound: usize) -> Answer {
    if BANKED_REGS[..3].iter().all(|r| flush_set.contains(*r)) {
        Answer::Clean { bound }
    } else {
        Answer::Cex {
            depth: BANKED_CEX_DEPTH,
            family: &["bank0", "bank1", "bank2"],
        }
    }
}

/// Depth of every `banked_device` channel, whichever bank leaks
/// (`banked_rule_holds_on_every_flush_set` checks all 16 flush sets).
pub const BANKED_CEX_DEPTH: usize = 7;

/// The flush set a 4-bit mask names.
pub fn banked_flush_set(mask: u8) -> BTreeSet<String> {
    BANKED_REGS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, r)| r.to_string())
        .collect()
}

/// `count` distinct seeded flush sets, as tasks.
fn banked_draws(rng: &mut SplitMix64, count: usize, bound: usize) -> Vec<TaskSpec> {
    let mut masks: Vec<u8> = Vec::new();
    while masks.len() < count {
        let mask = (rng.next() % 16) as u8;
        if !masks.contains(&mask) {
            masks.push(mask);
        }
    }
    masks
        .into_iter()
        .map(|mask| {
            let flush_set = banked_flush_set(mask);
            let answer = banked_answer(&flush_set, bound);
            let description = format!("banked_device flushing {flush_set:?}");
            TaskSpec::new(
                &format!("B{mask:04b}"),
                &description,
                Recipe::Banked(flush_set),
                CheckMode::Check,
                answer,
            )
        })
        .collect()
}

/// SplitMix64: a tiny, well-mixed seeded generator, so the same seed
/// always yields the same task order and flush-set draws.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_tasks() {
        for w in Workload::ALL {
            let ids = |seed| -> Vec<String> { w.tasks(seed).into_iter().map(|t| t.id).collect() };
            assert_eq!(ids(7), ids(7));
        }
        let a: Vec<String> = Workload::Attribute
            .tasks(1)
            .into_iter()
            .map(|t| t.id)
            .collect();
        let b: Vec<String> = Workload::Attribute
            .tasks(2)
            .into_iter()
            .map(|t| t.id)
            .collect();
        assert_ne!(a, b, "different seeds should draw differently");
    }

    #[test]
    fn isolated_attribution_runs_the_in_process_job_list() {
        for seed in 0..5 {
            let ids =
                |w: Workload| -> Vec<String> { w.tasks(seed).into_iter().map(|t| t.id).collect() };
            assert_eq!(ids(Workload::Attribute), ids(Workload::AttributeIsolated));
        }
    }

    #[test]
    fn family_patterns_match_names() {
        let a = Answer::Cex {
            depth: 1,
            family: &["icache.data*", "*.valid", "cfg"],
        };
        assert!(a.family_matches(&["icache.data[3]".to_string()]));
        assert!(a.family_matches(&["r2.valid".to_string()]));
        assert!(a.family_matches(&["cfg".to_string()]));
        assert!(!a.family_matches(&["cfg2".to_string(), "icache.tag".to_string()]));
    }

    /// The banked rule is checked on all 16 flush sets before any
    /// workload relies on it.
    #[test]
    fn banked_rule_holds_on_every_flush_set() {
        let config = Workload::Attribute
            .config()
            .granularity(Granularity::Monolithic);
        for mask in 0..16u8 {
            let flush_set = banked_flush_set(mask);
            let recipe = Recipe::Banked(flush_set.clone());
            let ft = recipe.testbench(Granularity::Monolithic);
            let report = ft.check_portfolio(&config);
            let row = autocc_core::TableRow::from_report("B", "banked", &report);
            let answer = banked_answer(&flush_set, config.max_depth);
            assert!(
                answer.matches_row(&row.outcome, row.depth),
                "mask {mask:04b}: {} at {:?}, expected {answer:?}",
                row.outcome,
                row.depth
            );
            if let Some(cex) = report.outcome.cex() {
                let names: Vec<String> =
                    cex.diverging_state.iter().map(|d| d.name.clone()).collect();
                assert!(answer.family_matches(&names), "mask {mask:04b}: {names:?}");
            }
        }
    }
}
