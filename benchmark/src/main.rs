//! `autocc-benchmark`: runs one named workload through the public
//! campaign API (`run_campaign`, `CampaignTask`, `CheckConfig`), checks
//! every row against a known-answer table, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) as the
//! last line of standard output, one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload discover --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the
//! known answers.

mod trace;
mod workloads;

use autocc_aig::SeqAig;
use autocc_bench::{
    run_campaign, CampaignOptions, CampaignStats, CampaignTask, ProcEngine, WorkerLimits,
    WorkerPool,
};
use autocc_bmc::{BmcEngine, CheckConfig, CheckEngine, CheckMode, Granularity};
use autocc_core::{
    format_table, format_table_stable, AutoCcOutcome, FpvTestbench, RowStatus, TableRow,
};
use autocc_telemetry::{ProfileRecorder, RunProfile, SolverCounters, Telemetry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{
    cpu_seconds, reaped_children_peak_mb, EngineLedger, Pace, PeakRss, TracedEngine, Tracer,
};
use workloads::{TaskSpec, Workload};

const USAGE: &str =
    "usage: autocc-benchmark --workload discover|certify-clean|attribute|attribute-isolated \
                     --seed N --seconds N --trace 0|1";

/// `setup_s` is the median over batches of set-ups, each batch lasting at
/// least `SETUP_BATCH_S` seconds: `SETUP_BATCHES_FIRST` at the start of a
/// run and `SETUP_BATCHES_BETWEEN` after every unit, so they spread over
/// the run. The host's speed shifts for seconds at a time, so a median
/// over the whole run is steadier than any figure from one moment of it.
const SETUP_BATCH_S: f64 = 0.1;
const SETUP_BATCHES_FIRST: usize = 2;
const SETUP_BATCHES_BETWEEN: usize = 2;

/// The pace probe's median time on the host the benchmark was written on
/// (a 2-core Xeon container). `wall_ref_s` and `cpu_ref_s` scale a unit's
/// time by this over the median probe time during the unit.
const REFERENCE_PACE_S: f64 = 0.00058;

/// Set in the child process that does a run's work.
const RUN_CHILD_ENV: &str = "AUTOCC_BENCHMARK_RUN";

/// Runs this command again as a child and passes on its exit code.
/// `cargo run` executes the benchmark in its own place, so this process
/// may already have reaped the compiler; the child has reaped nothing but
/// its own workers, whose peak `peak_rss_mb` counts.
fn run_in_child() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(RUN_CHILD_ENV, "1")
            .status()
    });
    match status {
        Ok(status) => match status.code() {
            Some(0) => ExitCode::SUCCESS,
            Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            None => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("autocc-benchmark: cannot start the run: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where runs keep their journals and span dumps (inside the checkout).
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // Isolated campaigns re-execute this binary as their worker.
    autocc_bench::maybe_run_worker();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("autocc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(RUN_CHILD_ENV).is_none() {
        return run_in_child();
    }
    let result = std::fs::create_dir_all(RUN_DIR)
        .map_err(|e| format!("cannot create {RUN_DIR}: {e}"))
        .and_then(|()| {
            if args.trace {
                traced_run(&args)
            } else {
                timed_run(&args)
            }
        });
    match result {
        Ok(result) => {
            result.print();
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("autocc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Set-up, campaigns and verification
// ---------------------------------------------------------------------

/// What building one campaign's testbenches cost.
#[derive(Clone, Copy)]
struct SetupCost {
    properties: usize,
    state_bits: usize,
}

/// Elaborates every DUT and generates every testbench up front. With a
/// tracer, each DUT is first elaborated on its own (a `duts.build` span)
/// and then its testbench is built, elaborating the DUT again (a
/// `core.testbench` span); generation is the difference of the two.
fn setup(
    tasks: &[TaskSpec],
    granularity: Granularity,
    tracer: Option<&Tracer>,
) -> (Vec<FpvTestbench>, SetupCost) {
    let testbenches: Vec<FpvTestbench> = tasks
        .iter()
        .map(|t| match tracer {
            Some(tracer) => {
                let dut = tracer.time("duts.build", &t.id, || t.recipe.build_dut());
                std::hint::black_box(dut);
                tracer.time("core.testbench", &t.id, || t.recipe.testbench(granularity))
            }
            None => t.recipe.testbench(granularity),
        })
        .collect();
    let cost = SetupCost {
        properties: testbenches.iter().map(|ft| ft.properties().len()).sum(),
        state_bits: testbenches.iter().map(|ft| ft.miter().state_bits()).sum(),
    };
    (testbenches, cost)
}

/// Times set-up in batches spread over a run. A batch repeats set-up for
/// at least `SETUP_BATCH_S` and records its time over its count.
struct SetupTimer<'a> {
    tasks: &'a [TaskSpec],
    granularity: Granularity,
    per_setup: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Runs one batch first and discards it, so cold caches and page
    /// faults do not weigh in.
    fn new(tasks: &'a [TaskSpec], granularity: Granularity) -> SetupTimer<'a> {
        let mut timer = SetupTimer {
            tasks,
            granularity,
            per_setup: Vec::new(),
        };
        timer.batches(1);
        timer.per_setup.clear();
        timer
    }

    fn batches(&mut self, count: usize) {
        for _ in 0..count {
            let start = Instant::now();
            let mut setups = 0u32;
            while start.elapsed().as_secs_f64() < SETUP_BATCH_S {
                std::hint::black_box(setup(self.tasks, self.granularity, None));
                setups += 1;
            }
            self.per_setup
                .push(start.elapsed().as_secs_f64() / f64::from(setups));
        }
    }

    fn median(&self) -> f64 {
        median(&self.per_setup)
    }
}

/// Cluster-plan figures of a traced set-up.
#[derive(Clone, Copy, Default)]
struct AigInfo {
    clusters: usize,
    mean_cone_bits: f64,
}

/// Times the bit-blast (`SeqAig::from_module`) of every miter and the
/// cluster plan of every testbench, outside any campaign.
fn probe_aig(
    tracer: &Tracer,
    tasks: &[TaskSpec],
    testbenches: &[FpvTestbench],
    config: &CheckConfig,
) -> AigInfo {
    let (mut clusters, mut cone_bits) = (0usize, 0usize);
    for (t, ft) in tasks.iter().zip(testbenches) {
        let seq = tracer.time("aig.blast", &t.id, || SeqAig::from_module(ft.miter()));
        std::hint::black_box(seq);
        if let Some(plan) = tracer.time("aig.cluster_plan", &t.id, || ft.cluster_plan(config)) {
            clusters += plan.clusters.len();
            cone_bits += plan.clusters.iter().map(|c| c.cone_bits()).sum::<usize>();
        }
    }
    AigInfo {
        clusters,
        mean_cone_bits: if clusters == 0 {
            0.0
        } else {
            cone_bits as f64 / clusters as f64
        },
    }
}

/// What a traced campaign wraps around the program.
struct Tracing {
    tracer: Arc<Tracer>,
    engine: Arc<dyn CheckEngine + Send + Sync>,
    isolated: bool,
    ledger: Arc<Mutex<EngineLedger>>,
}

/// What an untraced unit measures as each task starts: the peak RSS
/// (first unit only) and the host's pace.
#[derive(Clone, Copy, Default)]
struct Probes<'a> {
    peak: Option<&'a Arc<PeakRss>>,
    pace: Option<&'a Arc<Pace>>,
}

/// One workload's `run_campaign` calls, timed from the first dispatch to
/// the last row, less the pace probes taken inside that window.
struct Campaign {
    rows: Vec<TableRow>,
    stats: CampaignStats,
    wall_s: f64,
    cpu_s: f64,
}

fn campaign(
    workload: Workload,
    tasks: &[TaskSpec],
    testbenches: Vec<FpvTestbench>,
    config: &CheckConfig,
    options: &CampaignOptions,
    tracing: Option<&Tracing>,
    probes: Probes,
) -> Result<Campaign, String> {
    let Probes { peak, pace } = probes;
    let probed_before = pace.map_or(0.0, |p| p.total_s());
    let campaign_tasks: Vec<CampaignTask> = tasks
        .iter()
        .zip(testbenches)
        .map(|(t, ft)| {
            let tracer = tracing.map(|tr| Arc::clone(&tr.tracer));
            let peak = peak.map(Arc::clone);
            let pace = pace.map(Arc::clone);
            let id = t.id.clone();
            // The testbench is already built; the builder only hands it
            // over, probing the host's pace as the task starts and marking
            // the start for the tracer or the peak tracker.
            let build = move || {
                if let Some(pace) = &pace {
                    pace.probe();
                }
                if let Some(tracer) = &tracer {
                    tracer.begin_task(&id);
                }
                if let Some(peak) = &peak {
                    peak.task_boundary();
                }
                ft
            };
            let task = match t.mode {
                CheckMode::Check => CampaignTask::check(&t.id, &t.description, &t.id, build),
                CheckMode::Prove => CampaignTask::prove(&t.id, &t.description, &t.id, build),
            };
            // The engine seam is honoured for bounded checks only; proofs
            // keep their own engines and show up as task spans.
            match (tracing, t.mode) {
                (Some(tr), CheckMode::Check) => task.with_engine(Arc::new(TracedEngine {
                    inner: Arc::clone(&tr.engine),
                    tracer: Arc::clone(&tr.tracer),
                    task: t.id.clone(),
                    isolated: tr.isolated,
                    ledger: Arc::clone(&tr.ledger),
                })),
                _ => task,
            }
        })
        .collect();
    // Tasks with their own bound run as their own campaign; a workload
    // runs one task at a time, so splitting changes no schedule.
    let mut groups: Vec<(usize, Vec<CampaignTask>)> = Vec::new();
    for (t, task) in tasks.iter().zip(campaign_tasks) {
        let depth = t.depth.unwrap_or(config.max_depth);
        match groups.last_mut() {
            Some((d, group)) if *d == depth => group.push(task),
            _ => groups.push((depth, vec![task])),
        }
    }
    assert!(
        options.journal.is_none() || groups.len() == 1,
        "a journaled campaign runs under one bound"
    );
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut rows = Vec::new();
    let mut stats = CampaignStats::default();
    for (depth, group) in groups {
        let outcome = run_campaign(
            workload.name(),
            group,
            &config.clone().depth(depth),
            options,
        )
        .map_err(|e| format!("campaign failed to start: {e}"))?;
        rows.extend(outcome.rows);
        stats.cached += outcome.stats.cached;
        stats.live += outcome.stats.live;
        stats.stale += outcome.stats.stale;
        stats.hangs += outcome.stats.hangs;
        stats.skipped_failed += outcome.stats.skipped_failed;
    }
    // The probes are pure computation on this thread: their time counts
    // as both host and CPU time.
    let probed = pace.map_or(0.0, |p| p.total_s()) - probed_before;
    let wall_s = start.elapsed().as_secs_f64() - probed;
    let cpu_s = cpu_seconds() - cpu0 - probed;
    if let Some(tr) = tracing {
        tr.tracer.end_task();
    }
    if let Some(peak) = peak {
        peak.task_boundary();
    }
    Ok(Campaign {
        rows,
        stats,
        wall_s,
        cpu_s,
    })
}

/// The byte-comparable face of a campaign: its stable table plus every
/// row's solver counters.
#[derive(Clone, PartialEq)]
struct Signature {
    table: String,
    stats: Vec<Option<SolverCounters>>,
}

fn signature(rows: &[TableRow]) -> Signature {
    Signature {
        table: format_table_stable("benchmark", rows),
        stats: rows.iter().map(|r| r.stats).collect(),
    }
}

/// Journal figures of a `discover` unit.
#[derive(Clone, Copy, Default)]
struct JournalInfo {
    entries: u64,
    bytes: u64,
    resume_ms: f64,
}

/// One unit of work: the workload's campaign(s), their set-up, and the
/// verdict checks.
struct Unit {
    rows: Vec<TableRow>,
    signature: Signature,
    wall_s: f64,
    cpu_s: f64,
    setup: SetupCost,
    attempted: usize,
    failed: Vec<String>,
    problems: Vec<String>,
    journal: JournalInfo,
    aig: AigInfo,
}

impl Unit {
    fn fail(&mut self, id: impl Into<String>, why: String) {
        self.failed.push(id.into());
        self.problems.push(why);
    }
}

/// Why a row does not match its known answer, if it does not. Under
/// `--certify` a row must also carry a checked certificate.
fn row_problem(task: &TaskSpec, row: &TableRow, certify: bool) -> Option<String> {
    if row.id != task.id {
        return Some(format!("row {} where {} was expected", row.id, task.id));
    }
    if row.status != RowStatus::Ok || !task.answer.matches_row(&row.outcome, row.depth) {
        return Some(format!(
            "{}: {} at depth {:?}, expected {:?}",
            task.id, row.outcome, row.depth, task.answer
        ));
    }
    if certify && !row.certificate.is_certified() {
        return Some(format!("{}: no checked certificate", task.id));
    }
    None
}

fn journal_path(workload: Workload) -> PathBuf {
    Path::new(RUN_DIR).join(format!("{}-{}.jsonl", workload.name(), std::process::id()))
}

/// Runs one unit: set up, run the campaign, check every row. `discover`
/// journals its campaign and then resumes it from the journal, so its unit
/// is two campaigns with two set-ups.
fn run_unit(
    workload: Workload,
    tasks: &[TaskSpec],
    config: &CheckConfig,
    tracing: Option<&Tracing>,
    probes: Probes,
) -> Result<Unit, String> {
    let tracer = tracing.map(|t| &*t.tracer);
    let (testbenches, cost) = setup(tasks, workload.granularity(), tracer);
    let aig = tracer.map_or(AigInfo::default(), |tr| {
        probe_aig(tr, tasks, &testbenches, config)
    });
    let journal = (workload == Workload::Discover).then(|| journal_path(workload));
    let options = CampaignOptions {
        journal: journal.clone(),
        fresh: true,
        ..CampaignOptions::default()
    };
    let run = campaign(
        workload,
        tasks,
        testbenches,
        config,
        &options,
        tracing,
        probes,
    )?;
    let mut unit = Unit {
        signature: signature(&run.rows),
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        setup: cost,
        attempted: run.rows.len(),
        failed: Vec::new(),
        problems: Vec::new(),
        journal: JournalInfo::default(),
        aig,
        rows: run.rows,
    };
    let wrong: Vec<(String, String)> = tasks
        .iter()
        .zip(&unit.rows)
        .filter_map(|(task, row)| Some((task.id.clone(), row_problem(task, row, config.certify)?)))
        .collect();
    for (id, why) in wrong {
        unit.fail(id, why);
    }
    if let Some(path) = journal {
        let resumed = resume(&mut unit, workload, tasks, config, &path, probes.pace);
        let _ = std::fs::remove_file(&path);
        resumed?;
    }
    unit.failed.sort();
    unit.failed.dedup();
    Ok(unit)
}

/// The second half of a `discover` unit: checks root-cause families
/// against the journal records, then resumes the campaign from the
/// journal, which must serve every row with a byte-identical stable table.
fn resume(
    unit: &mut Unit,
    workload: Workload,
    tasks: &[TaskSpec],
    config: &CheckConfig,
    path: &Path,
    pace: Option<&Arc<Pace>>,
) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read the journal: {e}"))?;
    let recovered = autocc_journal::recover(&bytes).map_err(|e| format!("journal: {e}"))?;
    for task in tasks {
        match recovered.entries.iter().find(|e| e.id == task.id) {
            None => unit.fail(&task.id, format!("{}: no journal record", task.id)),
            Some(entry) => {
                if let AutoCcOutcome::Cex(cex) = &entry.report.outcome {
                    let names: Vec<String> =
                        cex.diverging_state.iter().map(|d| d.name.clone()).collect();
                    if !task.answer.family_matches(&names) {
                        unit.fail(
                            &task.id,
                            format!(
                                "{}: root cause {names:?} outside {:?}",
                                task.id, task.answer
                            ),
                        );
                    }
                }
            }
        }
    }

    let (testbenches, _) = setup(tasks, workload.granularity(), None);
    let options = CampaignOptions {
        journal: Some(path.to_path_buf()),
        resume: true,
        ..CampaignOptions::default()
    };
    let probes = Probes { peak: None, pace };
    let resumed = campaign(workload, tasks, testbenches, config, &options, None, probes)?;
    unit.attempted += resumed.rows.len();
    unit.wall_s += resumed.wall_s;
    unit.cpu_s += resumed.cpu_s;
    unit.journal = JournalInfo {
        entries: recovered.entries.len() as u64,
        bytes: bytes.len() as u64,
        resume_ms: resumed.wall_s * 1000.0,
    };
    let served_all = resumed.stats.cached == tasks.len() as u64 && resumed.stats.live == 0;
    if !served_all || signature(&resumed.rows).table != unit.signature.table {
        let why = format!(
            "resume pass ({}) did not reproduce the live table",
            resumed.stats
        );
        for task in tasks {
            unit.fail(format!("resume:{}", task.id), why.clone());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Rows attempted and failed over a run, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, unit: &Unit) {
        self.attempted += unit.attempted;
        self.failed += unit.failed.len();
        self.problems.extend(unit.problems.iter().cloned());
    }

    /// Every unit of a run must reproduce the first one's signature (and
    /// a traced isolated run the in-process reference); a unit that does
    /// not counts all its rows as failed.
    fn expect_signature(&mut self, expected: &Signature, unit: &Unit, what: &str) {
        if unit.signature != *expected {
            self.failed += unit.rows.len();
            self.problems.push(format!(
                "{what}: stable table or solver counters differ\n{}\nvs\n{}",
                unit.signature.table, expected.table
            ));
        }
    }
}

struct RunResult {
    workload: Workload,
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.problems.is_empty()
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for problem in &self.tally.problems {
            println!("FAILED {problem}");
        }
        let t = &self.tally;
        println!(
            "{}: failed_frac {} ({} of {} rows)",
            self.workload.name(),
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
        for m in &self.metrics {
            println!("  {:<24} {} {}", m.name, m.value + 0.0, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `+ 0.0` turns an empty sum's `-0` into `0`.
                let value = if m.value.is_finite() {
                    m.value + 0.0
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            t.attempted.max(1),
            t.failed,
            metrics.join(", ")
        );
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`0.0` for no values).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The untraced run: repeats units while another one fits in `--seconds`
/// (counted from the start, set-up batches included) and reports medians
/// over units. `wall_ref_s` and `cpu_ref_s` are a unit's host and CPU
/// seconds scaled by the host's pace during that unit; the raw figures
/// are printed above the result.
fn timed_run(args: &Args) -> Result<RunResult, String> {
    let start = Instant::now();
    let workload = args.workload;
    let tasks = workload.tasks(args.seed);
    let config = workload.config();
    let mut tally = Tally::default();
    let mut setups = SetupTimer::new(&tasks, workload.granularity());
    setups.batches(SETUP_BATCHES_FIRST);

    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let (mut wall_ref_s, mut cpu_ref_s, mut paces) = (Vec::new(), Vec::new(), Vec::new());
    let pace = Arc::new(Pace::default());
    let mut expected: Option<Signature> = None;
    let mut notes = Vec::new();
    // Peak RSS is taken over the first unit's tasks: later units only add
    // allocator fragmentation, and their count depends on speed. The
    // high-water mark restarts here, so set-ups do not count.
    let peak = Arc::new(PeakRss::default());
    peak.reset();
    loop {
        let unit_start = Instant::now();
        let first = wall_s.is_empty();
        let probes = Probes {
            peak: first.then_some(&peak),
            pace: Some(&pace),
        };
        let unit = run_unit(workload, &tasks, &config, None, probes)?;
        let unit_s = unit_start.elapsed();
        tally.add(&unit);
        if first {
            // Workers are children this process has reaped; their peak
            // counts too.
            let workers_mb = reaped_children_peak_mb();
            notes.push(format!(
                "peak RSS: this process {:.1} MB, workers {workers_mb:.1} MB",
                peak.mb()
            ));
            peak.record_mb(workers_mb);
            notes.push(format_table("first unit", &unit.rows));
        }
        match &expected {
            Some(sig) => tally.expect_signature(sig, &unit, "repeat"),
            None => expected = Some(unit.signature.clone()),
        }
        let slowdown = median(&pace.take()) / REFERENCE_PACE_S;
        wall_s.push(unit.wall_s);
        cpu_s.push(unit.cpu_s);
        wall_ref_s.push(unit.wall_s / slowdown);
        cpu_ref_s.push(unit.cpu_s / slowdown);
        paces.push(slowdown);
        setups.batches(SETUP_BATCHES_BETWEEN);
        if start.elapsed() + unit_s > secs(args.seconds) {
            break;
        }
    }
    notes.push(format!(
        "{} units: wall_s {wall_s:.3?}, pace over reference {paces:.3?}",
        wall_s.len()
    ));
    notes.push(format!(
        "raw medians over units: wall_s {} s, cpu_s {} s",
        median(&wall_s),
        median(&cpu_s)
    ));
    Ok(RunResult {
        workload,
        notes,
        tally,
        metrics: vec![
            metric("wall_ref_s", median(&wall_ref_s), "s"),
            metric("cpu_ref_s", median(&cpu_ref_s), "s"),
            metric("setup_s", setups.median(), "s"),
            metric("peak_rss_mb", peak.mb(), "MB"),
        ],
    })
}

/// The values of every `key` gauge in a profile, on spans named `span`
/// (or on every span).
fn gauges<'a>(
    profile: &'a RunProfile,
    span: Option<&'a str>,
    key: &'a str,
) -> impl Iterator<Item = u64> + 'a {
    profile
        .spans
        .iter()
        .filter(move |s| span.is_none_or(|name| s.name == name))
        .flat_map(|s| s.gauges.iter())
        .filter(move |(k, _)| k == key)
        .map(|(_, v)| *v)
}

fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s)
}

/// The traced run: pairs of one untraced and one traced unit until
/// `--seconds` is used up. Per-layer times are medians over the traced
/// units; counts must repeat exactly from unit to unit.
fn traced_run(args: &Args) -> Result<RunResult, String> {
    let workload = args.workload;
    let tasks = workload.tasks(args.seed);
    let config = workload.config();
    let mut tally = Tally::default();
    let start = Instant::now();
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    // An isolated unit must equal the in-process `attribute` unit.
    let mut expected: Option<Signature> = None;
    if workload.isolated() {
        let reference = run_unit(
            Workload::Attribute,
            &tasks,
            &Workload::Attribute.config(),
            None,
            Probes::default(),
        )?;
        tally.add(&reference);
        expected = Some(reference.signature);
    }
    loop {
        let pair_start = Instant::now();
        let plain = run_unit(workload, &tasks, &config, None, Probes::default())?;
        tally.add(&plain);
        match &expected {
            Some(sig) => tally.expect_signature(sig, &plain, "repeat"),
            None => expected = Some(plain.signature.clone()),
        }
        plain_wall.push(plain.wall_s);

        let recorder = Arc::new(ProfileRecorder::new());
        let mut traced_config = config.clone();
        traced_config.telemetry = Telemetry::root(recorder.clone(), workload.name());
        let engine: Arc<dyn CheckEngine + Send + Sync> = if workload.isolated() {
            let pool = WorkerPool::new(WorkerLimits::from_config(&config));
            Arc::new(ProcEngine::for_check(Arc::new(pool)))
        } else {
            Arc::new(BmcEngine)
        };
        let tracing = Tracing {
            tracer: Arc::new(Tracer::new()),
            engine,
            isolated: workload.isolated(),
            ledger: Arc::new(Mutex::new(EngineLedger::default())),
        };
        let traced = run_unit(
            workload,
            &tasks,
            &traced_config,
            Some(&tracing),
            Probes::default(),
        )?;
        tally.add(&traced);
        if let Some(sig) = &expected {
            tally.expect_signature(sig, &traced, "traced");
        }
        let ledger = tracing
            .ledger
            .lock()
            .expect("engine ledger poisoned by a panicking campaign thread");
        for mismatch in &ledger.mismatches {
            tally.failed += 1;
            tally
                .problems
                .push(format!("isolated vs in-process job: {mismatch}"));
        }
        // In-process re-runs and codec probes run inside the isolated
        // campaign; take them out of its traced wall time.
        traced_wall.push(traced.wall_s - ledger.probe_s);
        let profile = recorder.profile();
        layer_runs.push(layer_metrics(
            &traced,
            &tracing,
            &ledger,
            &profile,
            config.certify,
        ));
        drop(ledger);
        let dump = Path::new(RUN_DIR).join(format!("trace-{}-{}.json", workload.name(), args.seed));
        std::fs::write(&dump, tracing.tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;

        if start.elapsed() + pair_start.elapsed() > secs(args.seconds) {
            break;
        }
    }

    // Counts repeat exactly; times are medians over the traced units.
    let first = &layer_runs[0];
    let mut metrics = Vec::new();
    for (i, m) in first.iter().enumerate() {
        let values: Vec<f64> = layer_runs.iter().map(|run| run[i].value).collect();
        let value = if is_time(m.unit) {
            median(&values)
        } else {
            if m.name != "journal.bytes" && values.iter().any(|v| *v != m.value) {
                tally.failed += 1;
                tally
                    .problems
                    .push(format!("{} did not repeat: {values:?}", m.name));
            }
            m.value
        };
        metrics.push(metric(m.name, value, m.unit));
    }
    metrics.push(metric(
        "trace.overhead_frac",
        median(&traced_wall) / median(&plain_wall) - 1.0,
        "frac",
    ));
    Ok(RunResult {
        workload,
        notes: vec![format!(
            "{} traced units; spans in {RUN_DIR}/trace-{}-{}.json",
            layer_runs.len(),
            workload.name(),
            args.seed
        )],
        tally,
        metrics,
    })
}

fn is_time(unit: &str) -> bool {
    matches!(unit, "ms" | "1/us")
}

/// Every per-layer metric of one traced unit.
fn layer_metrics(
    unit: &Unit,
    tracing: &Tracing,
    ledger: &EngineLedger,
    profile: &RunProfile,
    certify: bool,
) -> Vec<Metric> {
    let tracer = &tracing.tracer;
    let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let phase_ms = |name: &str| {
        profile
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.total_us as f64 / 1000.0)
    };
    let gauge_sum = |span: Option<&str>, key: &str| -> f64 {
        gauges(profile, span, key).map(|v| v as f64).sum()
    };
    let mut sat = SolverCounters::default();
    for row in &unit.rows {
        if let Some(stats) = &row.stats {
            sat += stats;
        }
    }
    let bmc_jobs = tracer.durations_ms("bmc.job");
    let worker_jobs = tracer.durations_ms("workers.job");
    let solve_us = phase_ms("solve") * 1000.0;
    let certified = unit
        .rows
        .iter()
        .filter(|r| r.certificate.is_certified())
        .count();
    let cost = unit.setup;
    let count = |v: u64| v as f64;
    vec![
        metric("duts.build_ms", sum("duts.build"), "ms"),
        metric(
            "core.generate_ms",
            sum("core.testbench") - sum("duts.build"),
            "ms",
        ),
        metric("core.properties", cost.properties as f64, "count"),
        metric("core.miter_state_bits", cost.state_bits as f64, "bits"),
        metric("aig.blast_ms", sum("aig.blast"), "ms"),
        metric("aig.clusters", unit.aig.clusters as f64, "count"),
        metric("aig.mean_cone_bits", unit.aig.mean_cone_bits, "bits"),
        metric("bmc.cnf_encode_ms", phase_ms("cnf-encode"), "ms"),
        metric("bmc.solve_ms", phase_ms("solve"), "ms"),
        metric("bmc.cex_replay_ms", phase_ms("certify"), "ms"),
        metric(
            "bmc.jobs",
            (if tracing.isolated {
                &worker_jobs
            } else {
                &bmc_jobs
            })
            .len() as f64,
            "count",
        ),
        metric("bmc.job_ms_p50", percentile(&bmc_jobs, 0.5), "ms"),
        metric("bmc.job_ms_p90", percentile(&bmc_jobs, 0.9), "ms"),
        metric("sat.solve_calls", count(sat.solve_calls), "count"),
        metric("sat.conflicts", count(sat.conflicts), "count"),
        metric("sat.decisions", count(sat.decisions), "count"),
        metric("sat.propagations", count(sat.propagations), "count"),
        metric("sat.restarts", count(sat.restarts), "count"),
        metric("sat.learnt_clauses", count(sat.learnt_clauses), "count"),
        metric("sat.deleted_clauses", count(sat.deleted_clauses), "count"),
        metric(
            "sat.props_per_us",
            if solve_us > 0.0 {
                sat.propagations as f64 / solve_us
            } else {
                0.0
            },
            "1/us",
        ),
        metric("certify.drat_check_ms", phase_ms("certify-unsat"), "ms"),
        metric(
            "certify.proof_steps",
            gauge_sum(Some("certify-unsat"), "proof_steps"),
            "count",
        ),
        metric(
            "certify.certified_frac",
            if certify {
                certified as f64 / unit.rows.len().max(1) as f64
            } else {
                0.0
            },
            "frac",
        ),
        metric("journal.entries", count(unit.journal.entries), "count"),
        metric("journal.bytes", count(unit.journal.bytes), "bytes"),
        metric("journal.resume_ms", unit.journal.resume_ms, "ms"),
        metric("ipc.request_bytes", count(ledger.request_bytes), "bytes"),
        metric("ipc.encode_ms", sum("ipc.encode"), "ms"),
        metric("ipc.decode_ms", sum("ipc.decode"), "ms"),
        metric("workers.job_ms_p50", percentile(&worker_jobs, 0.5), "ms"),
        metric("workers.job_ms_p90", percentile(&worker_jobs, 0.9), "ms"),
        metric(
            "workers.overhead_ms",
            percentile(&ledger.overhead_ms, 0.5),
            "ms",
        ),
        metric(
            "workers.spawned",
            gauge_sum(None, "worker_spawned"),
            "count",
        ),
        metric(
            "workers.killed",
            gauge_sum(None, "worker_respawns"),
            "count",
        ),
    ]
}
