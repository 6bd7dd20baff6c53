//! Performance observatory: a deterministic workload matrix, a
//! schema-versioned bench report (`BENCH_<label>.json`), and the
//! regression-gate comparison the `perf_gate` binary drives.
//!
//! Two signals per workload, with very different contracts:
//!
//! * **Wall time** — min-of-N nanoseconds, machine-dependent and noisy.
//!   Gated only with a generous relative threshold.
//! * **[`CostCounters`]** — deterministic work counters folded from a
//!   traced run ([`asv_trace::cost`]). Machine-independent and
//!   bit-identical across worker counts, so the gate compares them with
//!   **exact equality**: any drift is either a real cost change or a
//!   determinism break, and both deserve a red build.
//!
//! No serde in this workspace, so [`json`] is a ~150-line hand-rolled
//! parser covering exactly the JSON this module emits.

use assertsolver_core::features::{extract_all, CaseContext};
use assertsolver_core::lm::NgramLm;
use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_fuzz::{AssertionOracle, FuzzOptions};
use asv_mutation::inject::{apply, enumerate};
use asv_mutation::repairspace::candidates;
use asv_sat::{Lit, SolveResult, Solver};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sim::cover::CovMap;
use asv_sim::{
    run_stimulus_group, AstSimulator, CompiledDesign, LaneBatch, LaneOutcome, Simulator, Stimulus,
    StimulusGen, Trace, LANES,
};
use asv_sva::bmc::{Engine, Verifier};
use asv_sva::monitor::CompiledChecker;
use asv_trace::{CostCounters, Event, SpanKind, TraceHandle, Tracer};
use asv_verilog::Design;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Bench report schema version; bump on any incompatible layout change.
/// v2: added the lane-batched simulation legs (`simulate_64x_scalar`,
/// `simulate_64x_batch`, `fuzz_throughput_batch`) and the
/// `sim_batches`/`sim_lanes_*` counter fields. v3: dropped the
/// `serve_warm_disk` leg and the four `store_*` counter fields. v4:
/// dropped the compile-cache hit counter. v5: dropped the
/// `sample_stimuli` counter field. v6: dropped the `symbolic_unopt` leg
/// and the counter field of IR optimization passes.
pub const SCHEMA_VERSION: u64 = 6;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A minimal JSON reader/writer sized for bench reports. Integers that
/// fit `u64` are kept exact (no `f64` round-trip), objects preserve key
/// order, and the escape set is the JSON-mandated minimum.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A non-negative integer that fits `u64`, kept exact.
        Int(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; key order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as `u64`, if it is an exact non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The value's object members.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(members) => Some(members),
                _ => None,
            }
        }
    }

    /// Escapes `s` for embedding in a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected `{}` at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let v = self.value()?;
                members.push((key, v));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
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
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "invalid \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "invalid \\u escape".to_string())?;
                                // Surrogate pairs are not emitted by this
                                // module; map lone surrogates to U+FFFD.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "invalid escape {:?}",
                                    other.map(|c| c as char)
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multi-byte safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            let integral = self.pos;
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if integral == self.pos {
                // No fraction/exponent: keep exact when it fits u64.
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("invalid number `{text}`"))
        }
    }
}

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

/// One workload's measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadResult {
    /// Wall time of every repetition, nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Deterministic work counters from the traced leg.
    pub counters: CostCounters,
    /// Per-job latency quantiles `(p50, p90, p99)` in nanoseconds, for
    /// serve workloads (report-only, never gated).
    pub job_ns: Option<(u64, u64, u64)>,
}

impl WorkloadResult {
    /// The gated wall figure: minimum over repetitions (least noisy).
    pub fn wall_min_ns(&self) -> u64 {
        self.wall_ns.iter().copied().min().unwrap_or(0)
    }
}

/// A full bench run: the workload matrix plus identifying metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Free-form label (`BENCH_<label>.json`).
    pub label: String,
    /// `"quick"` / `"default"` / `"paper"` — reports only compare
    /// within one scale.
    pub scale: String,
    /// Unix seconds when the run finished (orders baselines).
    pub created_unix: u64,
    /// Results keyed by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl BenchReport {
    /// Serializes the report (schema v[`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", SCHEMA_VERSION));
        out.push_str(&format!(
            "  \"label\": \"{}\",\n",
            json::escape(&self.label)
        ));
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            json::escape(&self.scale)
        ));
        out.push_str(&format!("  \"created_unix\": {},\n", self.created_unix));
        out.push_str("  \"workloads\": {\n");
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", json::escape(name)));
            let walls: Vec<String> = w.wall_ns.iter().map(u64::to_string).collect();
            out.push_str(&format!("      \"wall_ns\": [{}],\n", walls.join(", ")));
            out.push_str(&format!("      \"wall_min_ns\": {},\n", w.wall_min_ns()));
            if let Some((p50, p90, p99)) = w.job_ns {
                out.push_str(&format!("      \"job_ns_p50\": {p50},\n"));
                out.push_str(&format!("      \"job_ns_p90\": {p90},\n"));
                out.push_str(&format!("      \"job_ns_p99\": {p99},\n"));
            }
            out.push_str(&format!("      \"counters\": {}\n", w.counters.to_json()));
            out.push_str(if i + 1 < self.workloads.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses and validates a report: schema version, required members,
    /// the full counter vector per workload, and `wall_min_ns`
    /// consistency. Errors name the offending member.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(json::Value::as_u64)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let label = root
            .get("label")
            .and_then(json::Value::as_str)
            .ok_or("missing `label`")?
            .to_string();
        let scale = root
            .get("scale")
            .and_then(json::Value::as_str)
            .ok_or("missing `scale`")?
            .to_string();
        let created_unix = root
            .get("created_unix")
            .and_then(json::Value::as_u64)
            .ok_or("missing `created_unix`")?;
        let mut workloads = BTreeMap::new();
        let members = root
            .get("workloads")
            .and_then(json::Value::as_obj)
            .ok_or("missing `workloads` object")?;
        for (name, w) in members {
            let wall_ns: Vec<u64> = w
                .get("wall_ns")
                .and_then(json::Value::as_arr)
                .ok_or_else(|| format!("workload `{name}`: missing `wall_ns`"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| format!("workload `{name}`: non-integer wall sample"))
                })
                .collect::<Result<_, _>>()?;
            if wall_ns.is_empty() {
                return Err(format!("workload `{name}`: empty `wall_ns`"));
            }
            let stated_min = w
                .get("wall_min_ns")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("workload `{name}`: missing `wall_min_ns`"))?;
            if Some(stated_min) != wall_ns.iter().copied().min() {
                return Err(format!(
                    "workload `{name}`: `wall_min_ns` inconsistent with `wall_ns`"
                ));
            }
            let counters_obj = w
                .get("counters")
                .ok_or_else(|| format!("workload `{name}`: missing `counters`"))?;
            let mut missing = None;
            let counters = CostCounters::from_named(|field| {
                let v = counters_obj.get(field).and_then(json::Value::as_u64);
                if v.is_none() && missing.is_none() {
                    missing = Some(field.to_string());
                }
                v
            })
            .ok_or_else(|| {
                format!(
                    "workload `{name}`: counters missing field `{}`",
                    missing.unwrap_or_default()
                )
            })?;
            let q = |key: &str| w.get(key).and_then(json::Value::as_u64);
            let job_ns = match (q("job_ns_p50"), q("job_ns_p90"), q("job_ns_p99")) {
                (Some(p50), Some(p90), Some(p99)) => Some((p50, p90, p99)),
                (None, None, None) => None,
                _ => {
                    return Err(format!(
                        "workload `{name}`: partial job_ns quantiles (need p50+p90+p99)"
                    ))
                }
            };
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    wall_ns,
                    counters,
                    job_ns,
                },
            );
        }
        Ok(BenchReport {
            label,
            scale,
            created_unix,
            workloads,
        })
    }
}

// ---------------------------------------------------------------------------
// Workload matrix
// ---------------------------------------------------------------------------

/// Matrix knobs, derived from `ASV_SCALE` and CLI flags by `perf_matrix`.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Report label (file becomes `BENCH_<label>.json`).
    pub label: String,
    /// Quick scale: smaller design pool, fewer cycles, 1 wall rep.
    pub quick: bool,
    /// Wall-time repetitions per workload (min is kept).
    pub runs: usize,
}

impl MatrixConfig {
    /// The scale string recorded in (and matched across) reports.
    pub fn scale(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "default"
        }
    }
}

/// Golden designs plus a bug-injected pool, one (quick) or two sizes
/// per archetype, from the same deterministic corpus seed the trace
/// demo uses.
pub struct DesignPool {
    /// One golden design per corpus entry.
    pub golden: Vec<Arc<Design>>,
    /// Golden + first-injectable-bug variants, interleaved.
    pub pool: Vec<Arc<Design>>,
    /// The source text of every design in `pool`, in the same order.
    pub sources: Vec<String>,
}

/// Builds the benchmark design pool. Fully deterministic in `quick`.
pub fn design_pool(quick: bool) -> DesignPool {
    let per = if quick { 1 } else { 2 };
    let designs = CorpusGen::new(0x0B5E7).generate(per * Archetype::ALL.len());
    let mut golden_out = Vec::new();
    let mut pool = Vec::new();
    let mut sources = Vec::new();
    for gd in designs {
        let golden = asv_verilog::compile(&gd.source).expect("golden corpus design compiles");
        if let Some((buggy, buggy_source)) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            let buggy = asv_verilog::compile(&injection.buggy_source).ok()?;
            Some((buggy, injection.buggy_source))
        }) {
            pool.push(Arc::new(buggy));
            sources.push(buggy_source);
        }
        let golden = Arc::new(golden);
        pool.push(Arc::clone(&golden));
        sources.push(gd.source);
        golden_out.push(golden);
    }
    DesignPool {
        golden: golden_out,
        pool,
        sources,
    }
}

/// The bench `Verifier`: small uniform budgets so every engine finishes
/// in milliseconds while still doing representative work.
pub fn bench_verifier(engine: Engine) -> Verifier {
    Verifier {
        depth: 8,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        engine,
        ..Verifier::default()
    }
}

/// The serve workload: a mixed batch over golden + buggy designs with
/// engines rotating through `Auto`/`Symbolic`/`Simulation`/`Fuzz`.
pub fn mixed_batch(quick: bool) -> Vec<VerifyJob> {
    let pool = design_pool(quick).pool;
    let engines = [
        Engine::Auto,
        Engine::Symbolic,
        Engine::Simulation,
        Engine::Fuzz,
    ];
    let n = if quick { 32 } else { 64 };
    (0..n)
        .map(|i| {
            VerifyJob::new(
                Arc::clone(&pool[i % pool.len()]),
                bench_verifier(engines[i % engines.len()]),
            )
        })
        .collect()
}

/// Runs `jobs` through a traced service with `workers` threads
/// (0 = all cores) and returns the folded counters plus the raw events.
/// The counters are bit-identical for any `workers` value —
/// `tests/perf_counters.rs` enforces this.
pub fn batch_counters(jobs: &[VerifyJob], workers: usize) -> (CostCounters, Vec<Event>) {
    let tracer = Tracer::new();
    let service = VerifyService::with_workers(workers).traced(tracer.clone());
    let (_outcomes, _reports, events) = service.verify_batch_traced(jobs);
    assert_eq!(
        tracer.dropped(),
        0,
        "trace ring overflow would skew counters"
    );
    (CostCounters::from_events(&events), events)
}

/// `(p50, p90, p99)` of `Job`-span durations, nearest-rank.
pub fn job_latency_quantiles(events: &[Event]) -> Option<(u64, u64, u64)> {
    let mut durs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Job)
        .map(|e| e.dur_ns)
        .collect();
    if durs.is_empty() {
        return None;
    }
    durs.sort_unstable();
    let rank = |q: f64| {
        let r = ((q * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[r - 1]
    };
    Some((rank(0.50), rank(0.90), rank(0.99)))
}

fn time_runs(runs: usize, mut f: impl FnMut()) -> Vec<u64> {
    (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

fn workload_compile(golden: &[Arc<Design>], runs: usize) -> WorkloadResult {
    let wall_ns = time_runs(runs, || {
        for d in golden {
            std::hint::black_box(CompiledDesign::compile(d));
        }
    });
    let tracer = Tracer::new();
    let handle = tracer.handle();
    for d in golden {
        std::hint::black_box(CompiledDesign::compile_traced(d, &handle));
    }
    WorkloadResult {
        wall_ns,
        counters: CostCounters::from_events(&tracer.drain()),
        job_ns: None,
    }
}

/// Parses and elaborates every source with `asv_verilog::compile`. The
/// front end emits no spans, so the counter vector is all zero and the
/// leg is gated on wall time alone.
fn workload_frontend(sources: &[String], runs: usize) -> WorkloadResult {
    let wall_ns = time_runs(runs, || {
        for src in sources {
            std::hint::black_box(asv_verilog::compile(src)).expect("pool source compiles");
        }
    });
    WorkloadResult {
        wall_ns,
        counters: CostCounters::default(),
        job_ns: None,
    }
}

fn workload_simulate(golden: &[Arc<Design>], runs: usize, cycles: usize) -> WorkloadResult {
    let compiled: Vec<Arc<CompiledDesign>> = golden
        .iter()
        .map(|d| Arc::new(CompiledDesign::compile(d)))
        .collect();
    let wall_ns = time_runs(runs, || {
        for c in &compiled {
            let mut sim = Simulator::from_compiled(Arc::clone(c));
            sim.run(cycles, &[]).expect("bench design simulates");
        }
    });
    let mut counters = CostCounters::default();
    for c in &compiled {
        let mut sim = Simulator::from_compiled(Arc::clone(c));
        sim.enable_op_count();
        sim.run(cycles, &[]).expect("bench design simulates");
        counters.ops = counters.ops.saturating_add(sim.ops_executed());
    }
    WorkloadResult {
        wall_ns,
        counters,
        job_ns: None,
    }
}

/// The `simulate` leg's work on the AST interpreter oracle: every golden
/// design for `cycles` ticks with no inputs. The interpreter counts no
/// work, so the counter vector is all zero and the leg is gated on wall
/// time alone; its ratio to `simulate` is the compiled backend's speedup.
fn workload_simulate_interp(golden: &[Arc<Design>], runs: usize, cycles: usize) -> WorkloadResult {
    let wall_ns = time_runs(runs, || {
        for d in golden {
            let mut sim = AstSimulator::new(d);
            sim.run(cycles, &[]).expect("bench design simulates");
        }
    });
    WorkloadResult {
        wall_ns,
        counters: CostCounters::default(),
        job_ns: None,
    }
}

/// Repair-candidate preparation as `prepare_case` runs it: the candidates
/// of every injected-bug design of the pool and their features, against
/// an LM trained on the pool's sources. Each case's context (no spec and
/// no logs) is built before the timed runs. Preparation emits no spans,
/// so the counter vector is all zero and the leg is gated on wall time
/// alone.
fn workload_prepare(pool: &DesignPool, runs: usize) -> WorkloadResult {
    let mut lm = NgramLm::new();
    for src in &pool.sources {
        lm.train_text(src);
    }
    let cases: Vec<(&Design, CaseContext)> = pool
        .pool
        .iter()
        .filter(|d| !pool.golden.iter().any(|g| Arc::ptr_eq(g, d)))
        .map(|d| (&**d, CaseContext::new(&d.module, "", &[])))
        .collect();
    let wall_ns = time_runs(runs, || {
        for (design, ctx) in &cases {
            std::hint::black_box(extract_all(ctx, &lm, &candidates(design)));
        }
    });
    WorkloadResult {
        wall_ns,
        counters: CostCounters::default(),
        job_ns: None,
    }
}

/// 64 seeded random stimuli per design for the stimulus-throughput legs
/// (the "64x" in the workload names).
fn batch_stimuli(golden: &[Arc<Design>], cycles: usize) -> Vec<Vec<Stimulus>> {
    golden
        .iter()
        .map(|d| {
            let gen = StimulusGen::new(d);
            (0..64u64)
                .map(|i| gen.random_seeded(cycles, 2, 0x64C4 ^ i))
                .collect()
        })
        .collect()
}

/// Stimulus-throughput workload: the same 64 stimuli per design drained
/// in groups of `lanes` through `run`, which runs one group with op
/// counting on or off. The `simulate_64x_scalar` leg runs one
/// `LaneBatch<1>` per stimulus, what `Simulator` runs; the batched leg
/// runs [`run_stimulus_group`] at [`LANES`]. Both legs therefore
/// simulate identical work — their wall-time ratio *is* the lane
/// speedup, and their `ops` counters must be equal.
fn workload_simulate_stimuli(
    golden: &[Arc<Design>],
    runs: usize,
    cycles: usize,
    lanes: usize,
    run: impl Fn(&Arc<CompiledDesign>, &[Stimulus], bool) -> Vec<LaneOutcome>,
) -> WorkloadResult {
    let compiled: Vec<Arc<CompiledDesign>> = golden
        .iter()
        .map(|d| Arc::new(CompiledDesign::compile(d)))
        .collect();
    let stim_sets = batch_stimuli(golden, cycles);
    let wall_ns = time_runs(runs, || {
        for (c, stims) in compiled.iter().zip(&stim_sets) {
            for group in stims.chunks(lanes) {
                std::hint::black_box(run(c, group, false));
            }
        }
    });
    // Counter leg: per-lane op tallies are bit-identical to a
    // single-lane run of each stimulus; batch occupancy is a pure
    // function of the stimulus count and the lane width.
    let mut counters = CostCounters::default();
    for (c, stims) in compiled.iter().zip(&stim_sets) {
        for group in stims.chunks(lanes) {
            for lane in run(c, group, true).into_iter().flatten() {
                counters.ops = counters.ops.saturating_add(lane.ops);
            }
        }
        if lanes > 1 {
            let batches = stims.len().div_ceil(lanes) as u64;
            counters.sim_batches = counters.sim_batches.saturating_add(batches);
            counters.sim_lanes_occupied = counters
                .sim_lanes_occupied
                .saturating_add(stims.len() as u64);
            counters.sim_lanes_total = counters
                .sim_lanes_total
                .saturating_add(batches * lanes as u64);
        }
    }
    WorkloadResult {
        wall_ns,
        counters,
        job_ns: None,
    }
}

/// The SVA checker bridged into the fuzzer, as `asv-sva` wires it.
struct BenchOracle<'a> {
    checker: &'a CompiledChecker,
}

impl AssertionOracle for BenchOracle<'_> {
    fn assertions(&self) -> usize {
        self.checker.assertion_count()
    }
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
        let out = self
            .checker
            .outcomes_cov(trace, cov)
            .map_err(|e| e.to_string())?;
        Ok(out.iter().any(|(_, o)| o.is_failure()))
    }
}

/// Fuzzer stimulus-throughput workload: a fixed-budget campaign per
/// golden design with the lane-batched round executor, called
/// directly rather than through the service. Counters come from a traced
/// rerun of the same campaigns (rounds, runs and scheduled-basis batch
/// occupancy).
fn workload_fuzz_batch(golden: &[Arc<Design>], runs: usize) -> WorkloadResult {
    let compiled: Vec<Arc<CompiledDesign>> = golden
        .iter()
        .map(|d| Arc::new(CompiledDesign::compile(d)))
        .collect();
    let checkers: Vec<CompiledChecker> = golden
        .iter()
        .zip(&compiled)
        .map(|(d, c)| {
            let col = |name: &str| c.sig(name).map(|s| s.idx());
            CompiledChecker::new(&d.module, col).expect("bench design checks")
        })
        .collect();
    let opts = FuzzOptions {
        cycles: 12,
        reset_cycles: 2,
        budget: 128,
        seed: 0xF422,
    };
    let campaign = |trace: &TraceHandle| {
        for (c, checker) in compiled.iter().zip(&checkers) {
            let oracle = BenchOracle { checker };
            std::hint::black_box(
                asv_fuzz::fuzz_traced(c, &oracle, &opts, trace).expect("bench fuzz"),
            );
        }
    };
    let wall_ns = time_runs(runs, || campaign(&TraceHandle::disabled()));
    let tracer = Tracer::new();
    campaign(&tracer.handle());
    WorkloadResult {
        wall_ns,
        counters: CostCounters::from_events(&tracer.drain()),
        job_ns: None,
    }
}

/// Single-engine workload: every pool design through one verifier on
/// one worker (isolates the engine's own cost from scheduling).
fn workload_engine(pool: &[Arc<Design>], verifier: Verifier, runs: usize) -> WorkloadResult {
    let jobs: Vec<VerifyJob> = pool
        .iter()
        .map(|d| VerifyJob::new(Arc::clone(d), verifier))
        .collect();
    let wall_ns = time_runs(runs, || {
        let service = VerifyService::with_workers(1);
        std::hint::black_box(service.verify_batch(&jobs));
    });
    let (counters, _events) = batch_counters(&jobs, 1);
    WorkloadResult {
        wall_ns,
        counters,
        job_ns: None,
    }
}

/// Cold + warm serve legs over the mixed batch. Cold runs on a fresh
/// service; warm re-submits the same batch to the same service (memo
/// tier). Also returns the cold traced events so the caller can
/// synthesize a profile.
fn workload_serve(jobs: &[VerifyJob], runs: usize) -> (WorkloadResult, WorkloadResult, Vec<Event>) {
    let mut cold_wall = Vec::new();
    let mut warm_wall = Vec::new();
    for _ in 0..runs.max(1) {
        let service = VerifyService::new(ServeOptions::default());
        let t = Instant::now();
        std::hint::black_box(service.verify_batch(jobs));
        cold_wall.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(service.verify_batch(jobs));
        warm_wall.push(t.elapsed().as_nanos() as u64);
    }

    // Counter legs: one traced service, cold batch then warm batch.
    let tracer = Tracer::new();
    let service = VerifyService::new(ServeOptions::default()).traced(tracer.clone());
    let (_o, _r, cold_events) = service.verify_batch_traced(jobs);
    let (_o, _r, warm_events) = service.verify_batch_traced(jobs);
    assert_eq!(
        tracer.dropped(),
        0,
        "trace ring overflow would skew counters"
    );

    let cold = WorkloadResult {
        wall_ns: cold_wall,
        counters: CostCounters::from_events(&cold_events),
        job_ns: job_latency_quantiles(&cold_events),
    };
    let warm = WorkloadResult {
        wall_ns: warm_wall,
        counters: CostCounters::from_events(&warm_events),
        job_ns: job_latency_quantiles(&warm_events),
    };
    (cold, warm, cold_events)
}

/// Pigeonhole PHP(7,6) on the CDCL solver alone: a resolution-hard
/// UNSAT instance that exercises clause learning, VSIDS and restarts
/// rather than pure propagation. Counters come from the solver's own
/// fields (one solve call).
fn workload_sat_pigeonhole(runs: usize) -> WorkloadResult {
    let solve = || {
        let (pigeons, holes) = (7, 6);
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for p in &x {
            s.add_clause(p);
        }
        for (i, p1) in x.iter().enumerate() {
            for p2 in &x[i + 1..] {
                for (&a, &b) in p1.iter().zip(p2) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat, "PHP(7,6) is UNSAT");
        s
    };
    let wall_ns = time_runs(runs, || {
        std::hint::black_box(solve());
    });
    let s = solve();
    WorkloadResult {
        wall_ns,
        counters: CostCounters {
            sat_solves: 1,
            conflicts: s.conflicts,
            decisions: s.decisions,
            propagations: s.propagations,
            ..CostCounters::default()
        },
        job_ns: None,
    }
}

/// Runs the full matrix and assembles the report. Also returns the cold
/// serve leg's events for profile synthesis.
pub fn run_matrix(cfg: &MatrixConfig) -> (BenchReport, Vec<Event>) {
    let pool = design_pool(cfg.quick);
    let cycles = if cfg.quick { 64 } else { 256 };
    let mut workloads = BTreeMap::new();

    eprintln!(
        "[perf] frontend: {} golden + injected-bug sources ...",
        pool.sources.len()
    );
    workloads.insert(
        "frontend".to_string(),
        workload_frontend(&pool.sources, cfg.runs),
    );
    eprintln!(
        "[perf] prepare: repair candidates and features of {} injected-bug designs ...",
        pool.pool.len() - pool.golden.len()
    );
    workloads.insert("prepare".to_string(), workload_prepare(&pool, cfg.runs));
    eprintln!("[perf] compile: {} designs ...", pool.golden.len());
    workloads.insert(
        "compile".to_string(),
        workload_compile(&pool.golden, cfg.runs),
    );
    eprintln!(
        "[perf] simulate: {} designs x {cycles} cycles ...",
        pool.golden.len()
    );
    workloads.insert(
        "simulate".to_string(),
        workload_simulate(&pool.golden, cfg.runs, cycles),
    );
    eprintln!("[perf] simulate_interp: the same on the AST interpreter ...");
    workloads.insert(
        "simulate_interp".to_string(),
        workload_simulate_interp(&pool.golden, cfg.runs, cycles),
    );
    let stim_cycles = if cfg.quick { 16 } else { 64 };
    eprintln!(
        "[perf] simulate_64x: {} designs x 64 stimuli x {stim_cycles} cycles, K=1 + batch ...",
        pool.golden.len()
    );
    workloads.insert(
        "simulate_64x_scalar".to_string(),
        workload_simulate_stimuli(&pool.golden, cfg.runs, stim_cycles, 1, |c, g, ops| {
            LaneBatch::<1>::run_group(c, g, None, ops)
        }),
    );
    workloads.insert(
        "simulate_64x_batch".to_string(),
        workload_simulate_stimuli(&pool.golden, cfg.runs, stim_cycles, LANES, |c, g, ops| {
            run_stimulus_group(c, g, None, ops)
        }),
    );
    eprintln!(
        "[perf] fuzz_throughput_batch: {} designs, lane-batched campaigns ...",
        pool.golden.len()
    );
    workloads.insert(
        "fuzz_throughput_batch".to_string(),
        workload_fuzz_batch(&pool.golden, cfg.runs),
    );
    eprintln!("[perf] symbolic: {} designs ...", pool.pool.len());
    workloads.insert(
        "symbolic".to_string(),
        workload_engine(&pool.pool, bench_verifier(Engine::Symbolic), cfg.runs),
    );
    eprintln!("[perf] fuzz: {} designs ...", pool.pool.len());
    workloads.insert(
        "fuzz".to_string(),
        workload_engine(&pool.pool, bench_verifier(Engine::Fuzz), cfg.runs),
    );
    eprintln!("[perf] sat_pigeonhole_7_6: PHP(7,6) on the CDCL solver ...");
    workloads.insert(
        "sat_pigeonhole_7_6".to_string(),
        workload_sat_pigeonhole(cfg.runs),
    );

    let jobs = mixed_batch(cfg.quick);
    eprintln!(
        "[perf] serve: {}-job mixed batch, cold + warm ...",
        jobs.len()
    );
    let (cold, warm, cold_events) = workload_serve(&jobs, cfg.runs);
    workloads.insert("serve_cold".to_string(), cold);
    workloads.insert("serve_warm".to_string(), warm);

    let report = BenchReport {
        label: cfg.label.clone(),
        scale: cfg.scale().to_string(),
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        workloads,
    };
    (report, cold_events)
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// One compared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name (`wall_min_ns` or a counter field).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Whether this delta fails the gate.
    pub regression: bool,
    /// Human-readable verdict for the table.
    pub note: String,
}

/// The gate's verdict: structural errors plus per-metric deltas.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Structural failures (scale mismatch, missing workload).
    pub errors: Vec<String>,
    /// Per-metric comparisons; only interesting rows are kept (all wall
    /// rows, plus any counter that drifted).
    pub deltas: Vec<Delta>,
}

impl GateOutcome {
    /// `true` iff nothing regressed and the reports were comparable.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && !self.deltas.iter().any(|d| d.regression)
    }

    /// The readable delta table `perf_gate` prints.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&format!("ERROR: {e}\n"));
        }
        if self.deltas.is_empty() {
            return out;
        }
        // The longest workload name sets the column, so no name pushes
        // the later columns right.
        let w = self
            .deltas
            .iter()
            .map(|d| d.workload.len())
            .fold("workload".len(), usize::max);
        out.push_str(&format!(
            "{:<w$} {:<18} {:>14} {:>14} {:>9}  verdict\n",
            "workload", "metric", "baseline", "current", "delta"
        ));
        for d in &self.deltas {
            let delta = if d.baseline == 0 {
                if d.current == 0 {
                    "0".to_string()
                } else {
                    "+inf".to_string()
                }
            } else {
                let rel = (d.current as f64 - d.baseline as f64) / d.baseline as f64 * 100.0;
                format!("{rel:+.1}%")
            };
            out.push_str(&format!(
                "{:<w$} {:<18} {:>14} {:>14} {:>9}  {}\n",
                d.workload, d.metric, d.baseline, d.current, delta, d.note
            ));
        }
        out
    }
}

/// Compares `current` against `baseline`.
///
/// * Counters: **exact equality** per field — any drift is a
///   regression (or a determinism break; both should fail).
/// * Wall: `wall_min_ns` may grow by at most `wall_threshold_pct`
///   percent (skipped entirely under `counters_only`, the CI mode —
///   shared runners are too noisy to gate on time).
/// * Workloads present in the baseline must exist in the current
///   report; new workloads are reported but never fail.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    counters_only: bool,
    wall_threshold_pct: f64,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline.scale != current.scale {
        out.errors.push(format!(
            "scale mismatch: baseline `{}` vs current `{}` — not comparable",
            baseline.scale, current.scale
        ));
        return out;
    }
    for (name, base) in &baseline.workloads {
        let Some(cur) = current.workloads.get(name) else {
            out.errors.push(format!(
                "workload `{name}` present in baseline but missing now"
            ));
            continue;
        };
        for ((field, b), (_, c)) in base
            .counters
            .fields()
            .into_iter()
            .zip(cur.counters.fields())
        {
            if b != c {
                out.deltas.push(Delta {
                    workload: name.clone(),
                    metric: field.to_string(),
                    baseline: b,
                    current: c,
                    regression: true,
                    note: "FAIL (counter drift; gate is exact)".to_string(),
                });
            }
        }
        if !counters_only {
            let b = base.wall_min_ns();
            let c = cur.wall_min_ns();
            let regressed = b > 0 && (c as f64 - b as f64) / b as f64 * 100.0 > wall_threshold_pct;
            out.deltas.push(Delta {
                workload: name.clone(),
                metric: "wall_min_ns".to_string(),
                baseline: b,
                current: c,
                regression: regressed,
                note: if regressed {
                    format!("FAIL (> +{wall_threshold_pct:.0}%)")
                } else {
                    format!("ok (<= +{wall_threshold_pct:.0}%)")
                },
            });
        }
    }
    for name in current.workloads.keys() {
        if !baseline.workloads.contains_key(name) {
            out.deltas.push(Delta {
                workload: name.clone(),
                metric: "-".to_string(),
                baseline: 0,
                current: 0,
                regression: false,
                note: "new workload (no baseline)".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(label: &str) -> BenchReport {
        let counters = CostCounters {
            ops: 1234,
            compiles: 24,
            conflicts: 7,
            ..CostCounters::default()
        };
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "compile".to_string(),
            WorkloadResult {
                wall_ns: vec![300, 100, 200],
                counters,
                job_ns: None,
            },
        );
        workloads.insert(
            "serve_cold".to_string(),
            WorkloadResult {
                wall_ns: vec![9_000],
                counters,
                job_ns: Some((10, 90, 99)),
            },
        );
        BenchReport {
            label: label.to_string(),
            scale: "quick".to_string(),
            created_unix: 1_754_000_000,
            workloads,
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report("roundtrip");
        let parsed = BenchReport::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.workloads["compile"].wall_min_ns(), 100);
        assert_eq!(parsed.workloads["serve_cold"].job_ns, Some((10, 90, 99)));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{").is_err());
        assert!(BenchReport::parse("[]").is_err());
        // Wrong schema version.
        let err = BenchReport::parse(r#"{"schema": 99}"#).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // Counter vector must be complete.
        let mut text = sample_report("x").to_json();
        text = text.replace("\"ops\":1234,", "");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("missing field `ops`"), "{err}");
        // wall_min_ns must agree with wall_ns.
        let text = sample_report("x")
            .to_json()
            .replace("\"wall_min_ns\": 100", "\"wall_min_ns\": 1");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("wall_min_ns"), "{err}");
    }

    #[test]
    fn json_integers_stay_exact() {
        let v = json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = json::parse(r#"{"a": [1, 2.5, "x\n", true, null]}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], json::Value::Num(2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let report = sample_report("same");
        let outcome = compare(&report, &report, false, 25.0);
        assert!(outcome.passed(), "{}", outcome.table());
        // Wall rows are present even when everything passes.
        assert!(outcome.deltas.iter().any(|d| d.metric == "wall_min_ns"));
    }

    #[test]
    fn gate_fails_on_counter_drift_in_either_direction() {
        let baseline = sample_report("base");
        for bump in [1i64, -1] {
            let mut current = baseline.clone();
            let c = &mut current.workloads.get_mut("compile").unwrap().counters;
            c.conflicts = (c.conflicts as i64 + bump) as u64;
            let outcome = compare(&baseline, &current, false, 25.0);
            assert!(!outcome.passed());
            let table = outcome.table();
            assert!(table.contains("conflicts"), "{table}");
            assert!(table.contains("counter drift"), "{table}");
        }
    }

    #[test]
    fn gate_thresholds_wall_time() {
        let baseline = sample_report("base");
        let mut current = baseline.clone();
        // +20% on a 25% threshold: fine.
        current.workloads.get_mut("compile").unwrap().wall_ns = vec![120];
        assert!(compare(&baseline, &current, false, 25.0).passed());
        // +200%: regression...
        current.workloads.get_mut("compile").unwrap().wall_ns = vec![300];
        let outcome = compare(&baseline, &current, false, 25.0);
        assert!(!outcome.passed());
        assert!(
            outcome.table().contains("FAIL (> +25%)"),
            "{}",
            outcome.table()
        );
        // ...unless the gate runs counters-only (CI mode).
        assert!(compare(&baseline, &current, true, 25.0).passed());
    }

    #[test]
    fn gate_flags_scale_mismatch_and_missing_workloads() {
        let baseline = sample_report("base");
        let mut current = baseline.clone();
        current.scale = "default".to_string();
        let outcome = compare(&baseline, &current, false, 25.0);
        assert!(!outcome.passed());
        assert!(outcome.table().contains("scale mismatch"));

        let mut current = baseline.clone();
        current.workloads.remove("compile");
        let outcome = compare(&baseline, &current, false, 25.0);
        assert!(!outcome.passed());
        assert!(outcome.table().contains("missing now"));
    }

    #[test]
    fn gate_reports_a_leg_missing_from_the_baseline_as_new() {
        let baseline = sample_report("base");
        let mut current = baseline.clone();
        current.workloads.insert(
            "frontend".to_string(),
            WorkloadResult {
                wall_ns: vec![500],
                counters: CostCounters::default(),
                job_ns: None,
            },
        );
        for counters_only in [false, true] {
            let outcome = compare(&baseline, &current, counters_only, 25.0);
            assert!(outcome.passed(), "{}", outcome.table());
            assert!(outcome
                .deltas
                .iter()
                .any(|d| d.workload == "frontend" && d.note.starts_with("new workload")));
        }
    }

    #[test]
    fn gate_table_aligns_long_workload_names() {
        let baseline = sample_report("base");
        let mut current = baseline.clone();
        current.workloads.insert(
            "fuzz_throughput_batch".to_string(),
            WorkloadResult {
                wall_ns: vec![500],
                counters: CostCounters::default(),
                job_ns: None,
            },
        );
        let table = compare(&baseline, &current, false, 25.0).table();
        let lines: Vec<&str> = table.lines().collect();
        let col = lines[0].find("metric").expect("header names the metric");
        assert!(lines.len() > 2, "{table}");
        for line in &lines[1..] {
            let workload = line.split(' ').next().unwrap_or_default();
            assert_eq!(line[..col].trim_end(), workload, "{table}");
            assert_ne!(line.as_bytes()[col], b' ', "{table}");
        }
    }

    #[test]
    fn quantiles_are_nearest_rank_over_job_spans() {
        use asv_trace::Cost;
        let mk = |dur_ns: u64, kind: SpanKind| Event {
            name: "serve.job",
            kind,
            job: 1,
            engine: None,
            start_ns: 0,
            dur_ns,
            code: 0,
            cost: Cost::default(),
        };
        let mut events: Vec<Event> = (1..=100).map(|i| mk(i, SpanKind::Job)).collect();
        events.push(mk(1_000_000, SpanKind::Rung)); // ignored: not a Job span
        assert_eq!(job_latency_quantiles(&events), Some((50, 90, 99)));
        assert_eq!(job_latency_quantiles(&[]), None);
    }
}
