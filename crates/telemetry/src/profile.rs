//! In-memory span capture and the versioned JSON run profile.
//!
//! [`ProfileRecorder`] is the enabled implementation of
//! [`Recorder`](crate::Recorder): it timestamps spans against a monotonic
//! origin and keeps the tree in a mutex-protected vector (span ids are
//! 1-based indices, so a parent always precedes its children).
//! [`RunProfile`] is a snapshot of that tree plus aggregate rollups,
//! serialised by hand to JSON — the build environment has no serde — and
//! re-parsed by [`validate_profile_json`] for schema checks in tests/CI.

use crate::{Recorder, SolverCounters, SpanId, SpanKind};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Version stamp of the profile JSON schema.
pub const PROFILE_VERSION: u32 = 1;

struct SpanRecord {
    parent: SpanId,
    kind: SpanKind,
    name: String,
    start_us: u64,
    end_us: Option<u64>,
    counters: SolverCounters,
    gauges: Vec<(String, u64)>,
}

/// Captures the span tree in memory; snapshot with
/// [`ProfileRecorder::profile`].
pub struct ProfileRecorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl ProfileRecorder {
    /// A recorder whose timestamps count from "now".
    pub fn new() -> ProfileRecorder {
        ProfileRecorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Snapshots the tree into a profile. Spans still open are closed at
    /// the snapshot instant (in the snapshot only — recording continues).
    pub fn profile(&self) -> RunProfile {
        let now = self.now_us();
        let spans = self.spans.lock().unwrap();
        let out: Vec<ProfileSpan> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| ProfileSpan {
                id: (i + 1) as u32,
                parent: s.parent.0,
                kind: s.kind,
                name: s.name.clone(),
                start_us: s.start_us,
                end_us: s.end_us.unwrap_or(now),
                counters: s.counters,
                gauges: s.gauges.clone(),
            })
            .collect();
        RunProfile::from_spans(out)
    }
}

impl Default for ProfileRecorder {
    fn default() -> ProfileRecorder {
        ProfileRecorder::new()
    }
}

impl Recorder for ProfileRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, parent: SpanId, kind: SpanKind, name: &str) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().unwrap();
        spans.push(SpanRecord {
            parent,
            kind,
            name: name.to_string(),
            start_us,
            end_us: None,
            counters: SolverCounters::default(),
            gauges: Vec::new(),
        });
        SpanId(spans.len() as u32)
    }

    fn span_end(&self, span: SpanId) {
        let end_us = self.now_us();
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            if s.end_us.is_none() {
                s.end_us = Some(end_us);
            }
        }
    }

    fn counters(&self, span: SpanId, delta: &SolverCounters) {
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            s.counters += delta;
        }
    }

    fn gauge(&self, span: SpanId, key: &str, value: u64) {
        let mut spans = self.spans.lock().unwrap();
        if let Some(s) = span
            .0
            .checked_sub(1)
            .and_then(|i| spans.get_mut(i as usize))
        {
            match s.gauges.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => s.gauges.push((key.to_string(), value)),
            }
        }
    }
}

/// One closed span of a [`RunProfile`].
#[derive(Clone, Debug)]
pub struct ProfileSpan {
    /// 1-based id; parents always precede children.
    pub id: u32,
    /// Parent id, `0` for roots.
    pub parent: u32,
    /// Pipeline level.
    pub kind: SpanKind,
    /// Static label (`solve`, `cnf-encode`, a property name, ...).
    pub name: String,
    /// Microseconds since the recorder's origin.
    pub start_us: u64,
    /// Microseconds since the recorder's origin (`>= start_us`).
    pub end_us: u64,
    /// Solver work attributed to this span.
    pub counters: SolverCounters,
    /// Scalar annotations (`depth`, `queue_wait_us`, `attempt`, ...).
    pub gauges: Vec<(String, u64)>,
}

impl ProfileSpan {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Aggregate over all spans of one kind.
#[derive(Clone, Debug)]
pub struct KindRollup {
    /// The span kind.
    pub kind: SpanKind,
    /// How many spans of this kind.
    pub count: u64,
    /// Sum of their durations (overlapping spans sum, not union).
    pub total_us: u64,
}

/// Aggregate over all `Phase`/`Solve` spans sharing a name.
#[derive(Clone, Debug)]
pub struct PhaseRollup {
    /// Phase name (`bit-blast`, `coi-slice`, `cnf-encode`, `solve`,
    /// `certify`).
    pub name: String,
    /// How many spans carried this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_us: u64,
    /// Sum of their conflict counters.
    pub conflicts: u64,
}

/// A snapshot of one run: the span tree plus rollups, version-stamped.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Wall clock covered by the tree (max `end_us` over all spans).
    pub wall_us: u64,
    /// Sum of every span's counters (counters live on solve spans only,
    /// so this does not double-count).
    pub totals: SolverCounters,
    /// Per-kind rollup.
    pub kinds: Vec<KindRollup>,
    /// Per-phase rollup (phase and solve spans, grouped by name).
    pub phases: Vec<PhaseRollup>,
    /// The full span tree, id order.
    pub spans: Vec<ProfileSpan>,
}

impl RunProfile {
    /// Builds a profile (rollups included) from a finished span list.
    pub fn from_spans(spans: Vec<ProfileSpan>) -> RunProfile {
        let wall_us = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        let mut totals = SolverCounters::default();
        for s in &spans {
            totals += &s.counters;
        }
        let kinds = SpanKind::ALL
            .iter()
            .filter_map(|&kind| {
                let of_kind: Vec<&ProfileSpan> = spans.iter().filter(|s| s.kind == kind).collect();
                if of_kind.is_empty() {
                    return None;
                }
                Some(KindRollup {
                    kind,
                    count: of_kind.len() as u64,
                    total_us: of_kind.iter().map(|s| s.duration_us()).sum(),
                })
            })
            .collect();
        let mut phases: Vec<PhaseRollup> = Vec::new();
        for s in &spans {
            if !matches!(s.kind, SpanKind::Phase | SpanKind::Solve) {
                continue;
            }
            match phases.iter_mut().find(|p| p.name == s.name) {
                Some(p) => {
                    p.count += 1;
                    p.total_us += s.duration_us();
                    p.conflicts += s.counters.conflicts;
                }
                None => phases.push(PhaseRollup {
                    name: s.name.clone(),
                    count: 1,
                    total_us: s.duration_us(),
                    conflicts: s.counters.conflicts,
                }),
            }
        }
        RunProfile {
            version: PROFILE_VERSION,
            wall_us,
            totals,
            kinds,
            phases,
            spans,
        }
    }

    /// The names present in the phase rollup.
    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|p| p.name.as_str()).collect()
    }

    /// Serialises to the versioned JSON schema (see DESIGN.md
    /// "Observability").
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"wall_us\": {},", self.wall_us);
        let _ = writeln!(out, "  \"totals\": {},", counters_json(&self.totals));
        out.push_str("  \"kinds\": [\n");
        for (i, k) in self.kinds.iter().enumerate() {
            let comma = if i + 1 < self.kinds.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"kind\": {}, \"count\": {}, \"total_us\": {}}}{comma}",
                json_str(k.kind.as_str()),
                k.count,
                k.total_us
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"total_us\": {}, \"conflicts\": {}}}{comma}",
                json_str(&p.name),
                p.count,
                p.total_us,
                p.conflicts
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let mut gauges = String::from("{");
            for (j, (k, v)) in s.gauges.iter().enumerate() {
                if j > 0 {
                    gauges.push_str(", ");
                }
                let _ = write!(gauges, "{}: {v}", json_str(k));
            }
            gauges.push('}');
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {}, \"kind\": {}, \"name\": {}, \
                 \"start_us\": {}, \"end_us\": {}, \"counters\": {}, \"gauges\": {gauges}}}{comma}",
                s.id,
                s.parent,
                json_str(s.kind.as_str()),
                json_str(&s.name),
                s.start_us,
                s.end_us,
                counters_json(&s.counters)
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn counters_json(c: &SolverCounters) -> String {
    format!(
        "{{\"solve_calls\": {}, \"conflicts\": {}, \"decisions\": {}, \"propagations\": {}, \
         \"restarts\": {}, \"learnt_clauses\": {}, \"deleted_clauses\": {}}}",
        c.solve_calls,
        c.conflicts,
        c.decisions,
        c.propagations,
        c.restarts,
        c.learnt_clauses,
        c.deleted_clauses
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough to validate emitted profiles without
// serde. Numbers are kept as u64 (the schema has no floats/negatives).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting the profile reader accepts. The reader
/// recurses once per level, so past this depth it fails instead of
/// overflowing the stack. Emitted profiles nest four levels deep.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, failing past
    /// [`MAX_NESTING`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\`. Both
                    // delimiters are ASCII, so the run ends on a code point
                    // boundary and validating it costs only its own length.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("bad UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| self.error("number out of range"))
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content"));
    }
    Ok(v)
}

/// Headline numbers extracted by [`validate_profile_json`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Schema version of the document.
    pub version: u32,
    /// Number of spans in the tree.
    pub span_count: usize,
    /// Wall clock covered, microseconds.
    pub wall_us: u64,
    /// Total solve calls across the run.
    pub solve_calls: u64,
    /// Total conflicts across the run.
    pub conflicts: u64,
    /// Names in the phase rollup, document order.
    pub phase_names: Vec<String>,
}

const COUNTER_KEYS: [&str; 7] = [
    "solve_calls",
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learnt_clauses",
    "deleted_clauses",
];

fn check_counters(v: &Json, what: &str) -> Result<(), String> {
    for key in COUNTER_KEYS {
        v.get(key)
            .and_then(Json::num)
            .ok_or_else(|| format!("{what}: missing counter `{key}`"))?;
    }
    Ok(())
}

/// Parses and schema-checks a profile document, returning its headline
/// numbers. Errors name the first violated rule.
pub fn validate_profile_json(text: &str) -> Result<ProfileSummary, String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("version")
        .and_then(Json::num)
        .ok_or("missing `version`")? as u32;
    if version != PROFILE_VERSION {
        return Err(format!(
            "unsupported profile version {version} (expected {PROFILE_VERSION})"
        ));
    }
    let wall_us = doc
        .get("wall_us")
        .and_then(Json::num)
        .ok_or("missing `wall_us`")?;
    let totals = doc.get("totals").ok_or("missing `totals`")?;
    check_counters(totals, "totals")?;

    let phases = doc
        .get("phases")
        .and_then(Json::array)
        .ok_or("missing `phases` array")?;
    let mut phase_names = Vec::new();
    for (i, p) in phases.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(Json::str)
            .ok_or_else(|| format!("phases[{i}]: missing `name`"))?;
        for key in ["count", "total_us", "conflicts"] {
            p.get(key)
                .and_then(Json::num)
                .ok_or_else(|| format!("phases[{i}]: missing `{key}`"))?;
        }
        phase_names.push(name.to_string());
    }

    let spans = doc
        .get("spans")
        .and_then(Json::array)
        .ok_or("missing `spans` array")?;
    if spans.is_empty() {
        return Err("empty `spans` array (a profile has at least a run span)".to_string());
    }
    for (i, s) in spans.iter().enumerate() {
        let id = s
            .get("id")
            .and_then(Json::num)
            .ok_or_else(|| format!("spans[{i}]: missing `id`"))?;
        if id != (i + 1) as u64 {
            return Err(format!(
                "spans[{i}]: id {id} out of order (expected {})",
                i + 1
            ));
        }
        let parent = s
            .get("parent")
            .and_then(Json::num)
            .ok_or_else(|| format!("spans[{i}]: missing `parent`"))?;
        if parent >= id {
            return Err(format!(
                "spans[{i}]: parent {parent} does not precede span {id}"
            ));
        }
        let kind = s
            .get("kind")
            .and_then(Json::str)
            .ok_or_else(|| format!("spans[{i}]: missing `kind`"))?;
        if SpanKind::parse(kind).is_none() {
            return Err(format!("spans[{i}]: unknown kind `{kind}`"));
        }
        s.get("name")
            .and_then(Json::str)
            .ok_or_else(|| format!("spans[{i}]: missing `name`"))?;
        let start = s
            .get("start_us")
            .and_then(Json::num)
            .ok_or_else(|| format!("spans[{i}]: missing `start_us`"))?;
        let end = s
            .get("end_us")
            .and_then(Json::num)
            .ok_or_else(|| format!("spans[{i}]: missing `end_us`"))?;
        if end < start {
            return Err(format!("spans[{i}]: end_us {end} before start_us {start}"));
        }
        let counters = s
            .get("counters")
            .ok_or_else(|| format!("spans[{i}]: missing `counters`"))?;
        check_counters(counters, &format!("spans[{i}].counters"))?;
    }

    Ok(ProfileSummary {
        version,
        span_count: spans.len(),
        wall_us,
        solve_calls: totals.get("solve_calls").and_then(Json::num).unwrap_or(0),
        conflicts: totals.get("conflicts").and_then(Json::num).unwrap_or(0),
        phase_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, Telemetry};
    use std::sync::Arc;

    fn sample_profile() -> RunProfile {
        let recorder = Arc::new(ProfileRecorder::new());
        let run = Telemetry::root(
            Arc::clone(&recorder) as Arc<dyn crate::Recorder>,
            "test-run",
        );
        let check = run.child(SpanKind::Check, "as__y_eq");
        let encode = check.child(SpanKind::Phase, "cnf-encode");
        encode.close();
        let solve = check.child(SpanKind::Solve, "solve");
        solve.gauge("depth", 3);
        solve.gauge("depth", 4);
        solve.counters(&SolverCounters {
            solve_calls: 1,
            conflicts: 42,
            decisions: 10,
            ..SolverCounters::default()
        });
        solve.close();
        check.close();
        run.close();
        recorder.profile()
    }

    #[test]
    fn recorder_builds_a_well_formed_tree() {
        let p = sample_profile();
        assert_eq!(p.version, PROFILE_VERSION);
        assert_eq!(p.spans.len(), 4);
        assert_eq!(p.spans[0].kind, SpanKind::Run);
        assert_eq!(p.spans[0].parent, 0);
        assert_eq!(p.spans[1].parent, p.spans[0].id);
        assert_eq!(p.spans[3].name, "solve");
        // Gauges overwrite on re-record.
        assert_eq!(p.spans[3].gauges, vec![("depth".to_string(), 4)]);
        assert_eq!(p.totals.conflicts, 42);
        assert_eq!(p.totals.solve_calls, 1);
        assert!(p.phase_names().contains(&"cnf-encode"));
        assert!(p.phase_names().contains(&"solve"));
    }

    #[test]
    fn json_round_trips_through_the_validator() {
        let p = sample_profile();
        let json = p.to_json();
        let summary = validate_profile_json(&json).expect("emitted profile validates");
        assert_eq!(summary.version, PROFILE_VERSION);
        assert_eq!(summary.span_count, 4);
        assert_eq!(summary.conflicts, 42);
        assert_eq!(summary.solve_calls, 1);
        assert!(summary.phase_names.iter().any(|n| n == "cnf-encode"));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        assert!(validate_profile_json("not json").is_err());
        assert!(validate_profile_json("{}").unwrap_err().contains("version"));
        let wrong_version =
            sample_profile()
                .to_json()
                .replacen("\"version\": 1", "\"version\": 999", 1);
        assert!(validate_profile_json(&wrong_version)
            .unwrap_err()
            .contains("version"));
        let bad_parent = r#"{"version": 1, "wall_us": 0,
            "totals": {"solve_calls": 0, "conflicts": 0, "decisions": 0, "propagations": 0,
                       "restarts": 0, "learnt_clauses": 0, "deleted_clauses": 0},
            "kinds": [], "phases": [],
            "spans": [{"id": 1, "parent": 7, "kind": "run", "name": "x",
                       "start_us": 0, "end_us": 0,
                       "counters": {"solve_calls": 0, "conflicts": 0, "decisions": 0,
                                    "propagations": 0, "restarts": 0, "learnt_clauses": 0,
                                    "deleted_clauses": 0}, "gauges": {}}]}"#;
        assert!(validate_profile_json(bad_parent)
            .unwrap_err()
            .contains("parent"));
    }

    #[test]
    fn names_with_special_characters_survive() {
        let spans = vec![ProfileSpan {
            id: 1,
            parent: 0,
            kind: SpanKind::Run,
            name: "quote \" slash \\ tab \t".to_string(),
            start_us: 0,
            end_us: 1,
            counters: SolverCounters::default(),
            gauges: vec![("k".to_string(), 9)],
        }];
        let json = RunProfile::from_spans(spans).to_json();
        let summary = validate_profile_json(&json).expect("escaped names parse back");
        assert_eq!(summary.span_count, 1);
    }

    fn parse_str(input: &str) -> String {
        match parse_json(input) {
            Ok(Json::Str(s)) => s,
            other => panic!("{input:?} parsed to {other:?}"),
        }
    }

    fn nesting(v: &Json) -> usize {
        match v {
            Json::Array(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
            Json::Object(fields) => 1 + fields.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn string_runs_keep_multibyte_utf8() {
        assert_eq!(parse_str("\"é漢\""), "é漢");
        assert_eq!(parse_str("\"aé漢z\""), "aé漢z");
        assert_eq!(parse_str("\"漢\\n漢\""), "漢\n漢");
    }

    #[test]
    fn escapes_next_to_runs() {
        assert_eq!(parse_str(r#""a\"b\\c\u0001d""#), "a\"b\\c\u{1}d");
        assert_eq!(parse_str(r#""\"\\""#), "\"\\");
        assert_eq!(parse_str(r#""\u00e9x""#), "éx");
    }

    #[test]
    fn empty_strings_parse() {
        assert_eq!(parse_str("\"\""), "");
        let v = parse_json(r#"{"":["",""]}"#).unwrap();
        assert_eq!(v.get("").and_then(Json::array).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn unterminated_string_after_a_long_run_is_an_error() {
        let input = format!("\"{}", "x".repeat(100_000));
        assert!(parse_json(&input).unwrap_err().contains("unterminated"));
        let input = format!("\"{}\\", "é".repeat(1_000));
        assert!(parse_json(&input).is_err());
    }

    #[test]
    fn strings_round_trip_through_the_writer() {
        for s in [
            "",
            "é漢",
            "a\"b\\c\u{1}d",
            "\"",
            "\\",
            "tail\n",
            "\u{1f}漢\t\r/",
            &"run".repeat(1_000),
        ] {
            assert_eq!(parse_str(&json_str(s)), s);
        }
    }

    #[test]
    fn string_scan_is_linear() {
        // About 6 MB of strings: plain runs, multi-byte text and escapes.
        // Re-validating the rest of the document per character took
        // minutes on this; a linear scan takes well under a second.
        let item = json_str(&format!("{}é漢\"\\{}", "x".repeat(200), "y".repeat(60)));
        let text = format!("[{}]", vec![item; 20_000].join(","));
        assert!(text.len() > 5_000_000);
        let started = std::time::Instant::now();
        let parsed = parse_json(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.array().map(<[Json]>::len), Some(20_000));
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_fails() {
        let at = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert_eq!(nesting(&parse_json(&at).unwrap()), MAX_NESTING);
        let over = format!("[{at}]");
        assert!(parse_json(&over).unwrap_err().contains("nesting"));
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING + 1),
            "}".repeat(MAX_NESTING + 1)
        );
        assert!(parse_json(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn deep_nesting_fails_closed_on_a_spawned_thread() {
        let verdicts = std::thread::spawn(|| {
            [
                validate_profile_json(&"[".repeat(1_000_000)).is_err(),
                validate_profile_json(&"{\"k\":".repeat(200_000)).is_err(),
            ]
        })
        .join()
        .expect("parsing must not overflow the stack");
        assert_eq!(verdicts, [true, true]);
    }

    #[test]
    fn emitted_profiles_nest_far_below_the_limit() {
        let doc = parse_json(&sample_profile().to_json()).unwrap();
        let depth = nesting(&doc);
        assert!(
            depth * 8 <= MAX_NESTING,
            "profiles nest {depth} deep against a limit of {MAX_NESTING}"
        );
    }

    #[test]
    fn open_spans_are_closed_at_snapshot_time() {
        let recorder = ProfileRecorder::new();
        let id = recorder.span_start(SpanId::NONE, SpanKind::Run, "open");
        let p = recorder.profile();
        assert_eq!(p.spans.len(), 1);
        assert!(p.spans[0].end_us >= p.spans[0].start_us);
        // Recording continues after a snapshot.
        recorder.span_end(id);
        let p2 = recorder.profile();
        assert_eq!(p2.spans.len(), 1);
    }
}
