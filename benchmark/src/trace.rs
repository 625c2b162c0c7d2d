//! Measurement from outside the program: process resource usage, an
//! in-memory span recorder, and a check engine that times every engine
//! call it forwards through the public `CampaignTask::with_engine` seam.

use autocc_bmc::{BmcEngine, CancelToken, CheckConfig, CheckEngine, CheckSpec, EngineRun};
use autocc_journal::ipc::{parse_request, read_frame, request_json, write_frame};
use autocc_telemetry::Telemetry;
use std::fmt::Write as _;
use std::os::raw::{c_int, c_long};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs
/// (`ru_maxrss` first).
#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

fn rusage(who: c_int) -> RawRusage {
    let mut usage = RawRusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout the kernel fills, and `who` is one of the two documented
    // selectors, so the call writes only inside `usage`.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage cannot fail for RUSAGE_SELF/RUSAGE_CHILDREN"
    );
    usage
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

/// User plus system CPU seconds of this process and every worker it has
/// waited for.
pub fn cpu_seconds() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let u = rusage(who);
            seconds(&u.ru_utime) + seconds(&u.ru_stime)
        })
        .sum()
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// The largest peak RSS, in MiB, of any child this process has waited
/// for. A child's figure also covers the parent's pages it shared before
/// `exec`, which never exceed this process's own peak.
pub fn reaped_children_peak_mb() -> f64 {
    // `ru_maxrss` is in KiB on Linux.
    rusage(RUSAGE_CHILDREN).rest[0] as f64 / 1024.0
}

/// This process's peak RSS in MiB (`VmHWM`).
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The largest per-task peak RSS of this process, or of any worker as
/// the caller records it, in MiB.
///
/// At every task boundary the freed heap goes back to the OS and the
/// high-water mark restarts from the current RSS, so one task's peak does
/// not depend on which tasks ran before it (the seed shuffles the order).
/// A worker's peak cannot be read from outside once it is reaped (its
/// `ru_maxrss` starts from its parent's), so workers come in through
/// `record_mb`.
#[derive(Default)]
pub struct PeakRss(Mutex<f64>);

impl PeakRss {
    /// Records the peak since the last boundary and starts a new one.
    pub fn task_boundary(&self) {
        let mut peak = self.0.lock().expect("peak tracker poisoned");
        *peak = peak.max(vm_hwm_mb());
        restart_hwm();
    }

    /// Starts a new high-water mark without recording the old one.
    pub fn reset(&self) {
        let _peak = self.0.lock().expect("peak tracker poisoned");
        restart_hwm();
    }

    /// Records a peak measured elsewhere.
    pub fn record_mb(&self, mb: f64) {
        let mut peak = self.0.lock().expect("peak tracker poisoned");
        *peak = peak.max(mb);
    }

    pub fn mb(&self) -> f64 {
        *self.0.lock().expect("peak tracker poisoned")
    }
}

/// Returns the freed heap to the OS and restarts `VmHWM` from the current
/// RSS.
fn restart_hwm() {
    // SAFETY: `malloc_trim` only returns free heap pages to the OS; it
    // takes no pointers and is safe to call from any thread.
    unsafe { malloc_trim(0) };
    // Linux resets VmHWM to the current RSS on "5".
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Probes of the host's pace: a fixed integer kernel that shares no code
/// with the program and fits in L1, timed as each task starts. The host's
/// speed moves by up to ~1.7x over seconds to minutes (frequency and
/// co-tenants); the kernel's time moves with it, not with the program.
#[derive(Default)]
pub struct Pace(Mutex<Vec<f64>>);

/// Rounds of the pace kernel: about 0.6 ms on a 2-core Xeon container.
const PACE_ROUNDS: u64 = 150_000;

impl Pace {
    /// Times one run of the kernel.
    pub fn probe(&self) {
        let start = Instant::now();
        std::hint::black_box(pace_kernel(std::hint::black_box(PACE_ROUNDS)));
        let took = start.elapsed().as_secs_f64();
        self.0.lock().expect("pace probes poisoned").push(took);
    }

    /// Seconds spent in the probes not yet taken.
    pub fn total_s(&self) -> f64 {
        self.0.lock().expect("pace probes poisoned").iter().sum()
    }

    /// The probes so far, leaving none.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.0.lock().expect("pace probes poisoned"))
    }
}

/// Table updates, multiplies and a data-dependent branch over a 2 KiB
/// table.
fn pace_kernel(rounds: u64) -> u64 {
    let mut table = [0u64; 256];
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..rounds {
        let j = (h >> 56) as usize;
        table[j] = table[j].wrapping_add(h);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(13) ^ table[(h & 255) as usize] ^ i;
        if h & 4 == 0 {
            h = h.wrapping_add(7);
        }
    }
    h
}

/// One recorded span. `task` is the campaign row the work belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub task: String,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    current_task: Option<usize>,
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out in one piece.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Spans>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Spans> {
        self.inner
            .lock()
            .expect("span recorder poisoned by a panicking campaign thread")
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span under the current task span (if any).
    fn open(&self, name: &'static str, task: &str) -> usize {
        let start_us = self.now_us();
        let mut s = self.lock();
        let parent = s.current_task;
        s.spans.push(Span {
            name,
            task: task.to_string(),
            parent,
            start_us,
            end_us: start_us,
        });
        s.spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_us = self.now_us();
        self.lock().spans[id].end_us = end_us;
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, task: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, task);
        let out = f();
        self.close(id);
        out
    }

    /// A campaign task starts: its builder was just called. Tasks run one
    /// at a time, so this also ends the previous task's span.
    pub fn begin_task(&self, task: &str) {
        self.end_task();
        let id = self.open("campaign.task", task);
        self.lock().current_task = Some(id);
    }

    /// The last task of a campaign ended.
    pub fn end_task(&self) {
        let current = self.lock().current_task.take();
        if let Some(id) = current {
            self.close(id);
        }
    }

    /// Durations of every span with this name, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1000.0)
            .collect()
    }

    /// The span list as JSON, each span with its self time (its duration
    /// minus the time its children cover).
    pub fn to_json(&self) -> String {
        let s = self.lock();
        let mut child_us = vec![0u64; s.spans.len()];
        for span in &s.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.end_us - span.start_us;
            }
        }
        let mut out = String::from("[\n");
        for (i, span) in s.spans.iter().enumerate() {
            let duration = span.end_us - span.start_us;
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"task\": \"{}\", \"parent\": {}, \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                span.name,
                span.task.replace('\\', "\\\\").replace('"', "\\\""),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start_us,
                span.end_us,
                duration.saturating_sub(child_us[i]),
            );
            out.push_str(if i + 1 < s.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// What a traced engine saw besides the spans.
#[derive(Default)]
pub struct EngineLedger {
    /// Encoded request frame sizes (isolated jobs only).
    pub request_bytes: u64,
    /// Per isolated job: its worker time minus the same job's in-process
    /// time, in milliseconds.
    pub overhead_ms: Vec<f64>,
    /// Isolated jobs whose outcome or counters differed from the same
    /// job run in-process.
    pub mismatches: Vec<String>,
    /// Seconds spent in codec probes and in-process re-runs, which sit
    /// inside the traced campaign but are not part of the workload.
    pub probe_s: f64,
}

/// A check engine that forwards to `inner` and records one span per call.
///
/// For isolated runs (`isolated = true`, `inner` a worker-process engine)
/// it also probes the wire codec on the same request — `request_json`
/// plus `write_frame`, then `read_frame` plus `parse_request` — and reruns
/// the job in-process to get its in-process time and to check that both
/// answers agree. Probes run outside the engine-call span.
pub struct TracedEngine {
    pub inner: Arc<dyn CheckEngine + Send + Sync>,
    pub tracer: Arc<Tracer>,
    pub task: String,
    pub isolated: bool,
    pub ledger: Arc<Mutex<EngineLedger>>,
}

impl TracedEngine {
    fn ledger(&self) -> MutexGuard<'_, EngineLedger> {
        self.ledger
            .lock()
            .expect("engine ledger poisoned by a panicking campaign thread")
    }

    fn probe_codec(&self, spec: &CheckSpec<'_>, config: &CheckConfig) {
        let mut frame = Vec::new();
        self.tracer.time("ipc.encode", &self.task, || {
            let request = request_json(
                self.inner.name(),
                spec.module,
                &spec.properties,
                &spec.constraints,
                config,
            );
            write_frame(&mut frame, &request).expect("writing to a Vec cannot fail");
        });
        self.ledger().request_bytes += frame.len() as u64;
        self.tracer.time("ipc.decode", &self.task, || {
            let json = read_frame(&mut frame.as_slice())
                .expect("a frame written in-process reads back")
                .expect("the frame is not empty");
            parse_request(&json).expect("a request encoded in-process parses");
        });
    }
}

impl CheckEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check(&self, spec: &CheckSpec<'_>, config: &CheckConfig, cancel: &CancelToken) -> EngineRun {
        if self.isolated {
            let t = Instant::now();
            self.probe_codec(spec, config);
            self.ledger().probe_s += t.elapsed().as_secs_f64();
        }
        let name = if self.isolated {
            "workers.job"
        } else {
            "bmc.job"
        };
        let start = Instant::now();
        let run = self
            .tracer
            .time(name, &self.task, || self.inner.check(spec, config, cancel));
        if self.isolated {
            let isolated = start.elapsed();
            let mut quiet = config.clone();
            quiet.telemetry = Telemetry::off();
            let t = Instant::now();
            let local = self.tracer.time("bmc.job", &self.task, || {
                BmcEngine.check(spec, &quiet, &CancelToken::new())
            });
            let in_process = t.elapsed();
            let mut ledger = self.ledger();
            ledger.overhead_ms.push(ms(isolated) - ms(in_process));
            ledger.probe_s += in_process.as_secs_f64();
            let same = format!("{:?}", local.outcome) == format!("{:?}", run.outcome)
                && local.counters == run.counters;
            if !same {
                ledger.mismatches.push(format!(
                    "{}: isolated {:?} vs in-process {:?}",
                    self.task, run.outcome, local.outcome
                ));
            }
        }
        run
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
