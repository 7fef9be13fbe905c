//! # tapas-perfbench — end-to-end and per-layer benchmark
//!
//! One command runs a named workload from a seed, checks every output
//! against the interpreter golden model, and prints every end-to-end
//! metric with its unit; a separate traced run (`--trace 1`) records a
//! span around each layer call and prints the per-layer metrics instead.
//! See `README.md` beside this crate for the workloads and the layer →
//! metric → end-to-end map.

pub mod cpu;
pub mod stats;
pub mod trace;
pub mod work;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tapas_exec::json::ToJson;
use tapas_exec::{json_object, run_sweep, Cell, Policy};
use tapas_sim::SimStats;

use crate::trace::{Span, Tracer};
use crate::work::{JobRecord, Scale, Setup, Workload};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, then more until `SETUP_MIN_SECONDS` have passed.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Back-to-back event/stepped rerun pairs per simulation job in a traced run.
const STEPPED_PAIRS: usize = 3;

/// Front-end parses per source kernel in a traced run.
const PARSE_REPS: usize = 8;

/// Timed passes per run, at least: enough jobs for a tail percentile on
/// the workload with the longest pass.
const MIN_PASSES: usize = 6;

/// End-to-end metrics (untraced run), in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in report order.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("lang.parse_us", "us"),
    ("lang.lower_us", "us"),
    ("ir.print_us", "us"),
    ("ir.text_parse_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.insts", "count"),
    ("ir.interp_ms", "ms"),
    ("lint.us", "us"),
    ("analyze.us", "us"),
    ("core.compile_us", "us"),
    ("core.emit_chisel_us", "us"),
    ("core.emit_verilog_us", "us"),
    ("core.rtl_bytes", "bytes"),
    ("res.estimate_us", "us"),
    ("res.design_alms", "ALMs"),
    ("task.extract_us", "us"),
    ("task.tasks", "count"),
    ("dfg.lower_us", "us"),
    ("dfg.nodes", "count"),
    ("sim.elaborate_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.mcycles_per_s", "Mcyc/s"),
    ("sim.cycles", "cycles"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.engine_events", "count"),
    ("sim.skipped_cycles", "cycles"),
    ("sim.skip_ratio", "ratio"),
    ("sim.tile_util", "ratio"),
    ("sim.stepped_speedup", "x"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l1_miss_rate", "ratio"),
    ("mem.mshr_merges", "count"),
    ("mem.mshr_rejections", "count"),
    ("mem.bank_conflicts", "count"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.databox_issued", "count"),
    ("mem.cache_stalls", "count"),
    ("task.spawns", "count"),
    ("task.spawn_latency_avg", "cycles"),
    ("task.spawn_stalls", "cycles"),
    ("task.queue_peak", "count"),
    ("task.steals", "count"),
    ("task.steal_success", "ratio"),
    ("task.spills", "count"),
    ("task.refills", "count"),
    ("task.inline_spawns", "count"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.resume_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("exec.cell_ms_p50", "ms"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.overhead_frac", "ratio"),
    ("exec.retries", "count"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
];

/// Inputs recorded for known seeds: `workload seed fingerprint
/// sim_cycles design_alms` per line (`-` where not recorded).
const EXPECTED: &str = include_str!("../expected.txt");

/// FNV-1a 64-bit hash.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a string and a terminator, so concatenations differ.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for the Chrome trace of a traced run; `None` skips it.
    pub trace_dir: Option<PathBuf>,
}

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

json_object!(Metric { value, unit });

/// Metrics as one JSON object keyed by name.
struct MetricMap<'a>(&'a [Metric]);

impl ToJson for MetricMap<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            m.name.write_json(out);
            out.push(':');
            // A ratio with nothing to divide by reads 0, never null.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            Metric { value, ..m.clone() }.write_json(out);
        }
        out.push('}');
    }
}

/// The final JSON line.
struct ReportLine<'a> {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: MetricMap<'a>,
}

json_object!(ReportLine<'_> { correct, attempted, failed, metrics });

/// Result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// No check failed.
    pub correct: bool,
    /// Jobs run (reference pass, timed passes, traced reruns).
    pub attempted: u64,
    /// Jobs that failed a check, plus failed set-up checks.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Report {
    /// The final JSON line.
    pub fn json(&self) -> String {
        ReportLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: MetricMap(&self.metrics),
        }
        .to_json()
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Per-key reference results from the untimed first pass; every later
/// pass must reproduce them exactly.
struct Reference {
    stats: Vec<Option<SimStats>>,
    rtl: Vec<Option<(String, String)>>,
    alms: Vec<Option<u64>>,
    snap_bytes: Vec<Option<usize>>,
}

impl Reference {
    fn new(n: usize) -> Reference {
        Reference {
            stats: vec![None; n],
            rtl: vec![None; n],
            alms: vec![None; n],
            snap_bytes: vec![None; n],
        }
    }

    /// Store the first result per key; fail a later one that differs.
    fn check(&mut self, setup: &Setup, rec: &mut JobRecord) {
        let rtl = rec.rtl.take();
        if rec.error.is_some() {
            return;
        }
        let k = rec.key;
        let label = setup.sim.get(k).map_or_else(|| setup.hls[k].label.as_str(), |j| &j.label);
        let mut differs = Vec::new();
        if let Some(sim) = &rec.sim {
            if !same_or_store(&mut self.stats[k], &sim.stats) {
                differs.push("simulation statistics");
            }
        }
        if let Some(snap) = &rec.snap {
            if !same_or_store(&mut self.snap_bytes[k], &snap.bytes) {
                differs.push("snapshot size");
            }
        }
        if let Some(rtl) = rtl {
            if !same_or_store(&mut self.rtl[k], &rtl) {
                differs.push("RTL bytes");
            }
            if !same_or_store(&mut self.alms[k], &rec.alms) {
                differs.push("design area");
            }
        }
        if !differs.is_empty() {
            rec.error = Some(format!("{label}: {} differ from the first run", differs.join(", ")));
        }
    }

    fn sim_cycles(&self) -> u64 {
        self.stats.iter().flatten().map(|s| s.cycles).sum()
    }
}

fn same_or_store<T: PartialEq + Clone>(slot: &mut Option<T>, v: &T) -> bool {
    match slot {
        Some(r) => r == v,
        None => {
            *slot = Some(v.clone());
            true
        }
    }
}

/// What the metrics need of one timed job. The full record is dropped
/// once checked, so memory does not grow with the number of jobs run.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    ok: bool,
    wall_ns: u64,
    cpu_ns: u64,
    elaborate_ns: u64,
    run_ns: u64,
    cycles: u64,
    events: u64,
    queue_wait_ns: u64,
    attempts: u32,
}

impl From<&JobRecord> for Sample {
    fn from(r: &JobRecord) -> Sample {
        let sim = r.sim.as_ref();
        Sample {
            ok: r.error.is_none(),
            wall_ns: r.wall_ns,
            cpu_ns: r.cpu_ns,
            elaborate_ns: sim.map_or(0, |s| s.elaborate_ns),
            run_ns: sim.map_or(0, |s| s.run_ns),
            cycles: sim.map_or(0, |s| s.stats.cycles),
            events: sim.map_or(0, |s| s.stats.engine_events),
            queue_wait_ns: r.queue_wait_ns,
            attempts: r.attempts,
        }
    }
}

/// Samples and host time of a run of whole passes.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    errors: Vec<String>,
    wall_ns: u64,
    /// Process CPU time over the passes.
    cpu_ns: u64,
    /// Validated jobs per CPU second of each pass.
    pass_rates: Vec<f64>,
    jobs: usize,
    span_range: (usize, usize),
}

impl Phase {
    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    /// Median over passes, so a pass slowed by the host does not skew it.
    fn jobs_per_s(&self) -> f64 {
        stats::median(&self.pass_rates)
    }

    /// Job CPU times in ms, ascending.
    fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.ok().map(|s| s.cpu_ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One pass over every distinct job.
struct Pass {
    recs: Vec<JobRecord>,
    wall_ns: u64,
    /// CPU time of every thread of the process over the pass.
    cpu_ns: u64,
    /// Client threads (executor workers on `dse_sweep`).
    jobs: usize,
}

fn run_pass(setup: &Setup, tr: &mut Tracer, next_job: &mut u64) -> Pass {
    let (start, cpu_start) = (Instant::now(), cpu::process_ns());
    let mut recs = Vec::with_capacity(setup.jobs_per_pass());
    let mut jobs = 1;
    match setup.workload {
        Workload::DseSweep => {
            let (traced, epoch, base) = (tr.on(), tr.epoch(), *next_job);
            let cells: Vec<Cell<JobRecord>> = setup
                .sim
                .iter()
                .enumerate()
                .map(|(key, job)| {
                    let job = Arc::clone(job);
                    Cell::new(job.label.clone(), move || {
                        let queue_wait_ns = start.elapsed().as_nanos() as u64;
                        let mut tr = Tracer::new(traced, epoch, 0);
                        tr.set_job(base + key as u64);
                        let mut rec = work::guarded(key, &mut tr, |tr, rec| {
                            work::run_sim(&job, false, tr, rec)
                        });
                        rec.queue_wait_ns = queue_wait_ns;
                        rec.spans = tr.take();
                        Ok(rec)
                    })
                })
                .collect();
            *next_job += cells.len() as u64;
            // The `reproduce` CLI's policy: a worker per core, the
            // watchdog, and one retry.
            let report = run_sweep(&cells, &Policy::default_parallel(), None);
            jobs = report.jobs;
            for (key, r) in report.records.into_iter().enumerate() {
                let mut rec = r.payload.unwrap_or_else(|| JobRecord {
                    key,
                    error: Some(format!("{}: {} ({})", r.id, r.status.label(), r.detail)),
                    ..JobRecord::default()
                });
                rec.attempts = r.attempts;
                recs.push(rec);
            }
            assign_tracks(&mut recs);
            for rec in &mut recs {
                tr.absorb(std::mem::take(&mut rec.spans));
            }
        }
        Workload::HlsCompile => {
            for (key, prog) in setup.hls.iter().enumerate() {
                tr.set_job(*next_job);
                *next_job += 1;
                recs.push(work::guarded(key, tr, |tr, rec| work::run_hls(prog, tr, rec)));
            }
        }
        Workload::BusyKernels | Workload::SpawnChain => {
            for (key, job) in setup.sim.iter().enumerate() {
                tr.set_job(*next_job);
                *next_job += 1;
                recs.push(work::guarded(key, tr, |tr, rec| work::run_sim(job, false, tr, rec)));
            }
        }
    }
    Pass {
        recs,
        wall_ns: start.elapsed().as_nanos() as u64,
        cpu_ns: cpu::process_ns() - cpu_start,
        jobs,
    }
}

/// Give each sweep cell's spans a Chrome-trace track (1, 2, …; 0 is the
/// main thread) that no other cell holds while it runs. Every attempt runs
/// on a fresh watchdog thread, so tracks are assigned afterwards, greedily
/// in start order.
fn assign_tracks(recs: &mut [JobRecord]) {
    let mut order: Vec<usize> = (0..recs.len()).filter(|&i| !recs[i].spans.is_empty()).collect();
    order.sort_by_key(|&i| recs[i].spans[0].start_ns);
    let mut busy_until: Vec<u64> = Vec::new();
    for i in order {
        let root = &recs[i].spans[0];
        let track = match busy_until.iter().position(|&end| end <= root.start_ns) {
            Some(t) => t,
            None => {
                busy_until.push(0);
                busy_until.len() - 1
            }
        };
        busy_until[track] = root.end_ns;
        for s in &mut recs[i].spans {
            s.tid = track as u32 + 1;
        }
    }
}

/// Whole passes until `seconds` have elapsed, taking turns between the
/// `tracers` (one phase each, at least `MIN_PASSES` passes per phase), so
/// host drift falls alike on every phase.
fn timed_loop(
    setup: &Setup,
    seconds: f64,
    tracers: &mut [&mut Tracer],
    reference: &mut Reference,
    next_job: &mut u64,
) -> Vec<Phase> {
    let start = Instant::now();
    let mut phases: Vec<Phase> = tracers
        .iter()
        .map(|t| Phase { span_range: (t.spans().len(), 0), ..Phase::default() })
        .collect();
    for turn in 0.. {
        let i = turn % tracers.len();
        let mut pass = run_pass(setup, tracers[i], next_job);
        let ph = &mut phases[i];
        let mut ok = 0;
        for r in &mut pass.recs {
            reference.check(setup, r);
            ph.samples.push(Sample::from(&*r));
            ok += usize::from(r.error.is_none());
            ph.errors.extend(r.error.take());
        }
        ph.wall_ns += pass.wall_ns;
        ph.cpu_ns += pass.cpu_ns;
        ph.pass_rates.push(ok as f64 / (pass.cpu_ns as f64 / 1e9));
        ph.jobs = pass.jobs;
        let enough = phases.iter().all(|p| p.pass_rates.len() >= MIN_PASSES);
        if enough
            && turn % tracers.len() == tracers.len() - 1
            && start.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
    }
    for (ph, t) in phases.iter_mut().zip(tracers.iter()) {
        ph.span_range.1 = t.spans().len();
    }
    phases
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Recorded `(fingerprint, sim_cycles, design_alms)` for a workload and
/// seed; `None` fields were not recorded.
pub fn expected(workload: Workload, seed: u64) -> Option<(u64, Option<u64>, Option<u64>)> {
    EXPECTED.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() != 5 || f[0] != workload.name() || f[1].parse::<u64>().ok()? != seed {
            return None;
        }
        let fp = u64::from_str_radix(f[2].trim_start_matches("0x"), 16).ok()?;
        Some((fp, f[3].parse().ok(), f[4].parse().ok()))
    })
}

/// Run one benchmark invocation.
///
/// # Errors
///
/// Set-up failures, and inputs whose fingerprint differs from the one
/// recorded for this seed (the workload itself changed).
pub fn run(opts: &Options) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch, 0);
    let mut quiet = Tracer::new(false, epoch, 0);
    let mut next_job = 0u64;
    let mut lines = Vec::new();

    let mut setup_s: Vec<f64> = Vec::new();
    let mut last: Option<Setup> = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_REPS)
    {
        tr.set_job(next_job);
        next_job += 1;
        let t = cpu::process_ns();
        tr.enter("setup");
        let s = work::setup(opts.workload, opts.seed, &opts.scale, &mut tr);
        tr.exit();
        setup_s.push((cpu::process_ns() - t) as f64 / 1e9);
        let s = s?;
        if last.is_some_and(|prev| prev.fingerprint != s.fingerprint) {
            return Err("two set-ups from one seed built different inputs".into());
        }
        last = Some(s);
    }
    let setup = last.expect("at least one set-up");
    let recorded =
        (opts.scale == Scale::FULL).then(|| expected(opts.workload, opts.seed)).flatten();
    if let Some((fp, _, _)) = recorded {
        if fp != setup.fingerprint {
            return Err(format!(
                "{} seed {}: input fingerprint {:#018x} differs from the recorded {fp:#018x}; \
                 the workload's inputs changed",
                opts.workload.name(),
                opts.seed,
                setup.fingerprint
            ));
        }
    }

    // The reference pass: untimed, it also warms caches and allocators.
    let mut reference = Reference::new(setup.jobs_per_pass());
    let mut warm = run_pass(&setup, &mut quiet, &mut next_job).recs;
    for r in &mut warm {
        reference.check(&setup, r);
    }
    let mut errors: Vec<String> = warm.iter().filter_map(|r| r.error.clone()).collect();
    let mut attempted = warm.len() as u64;

    let sim_cycles = reference.sim_cycles();
    let design_alms = if opts.workload == Workload::HlsCompile {
        reference.alms.iter().flatten().sum()
    } else {
        setup.design_alms
    };
    if let Some((_, cycles, alms)) = recorded {
        if cycles.is_some_and(|c| c != sim_cycles) {
            errors.push(format!("sim_cycles {sim_cycles} differs from the recorded {cycles:?}"));
        }
        if alms.is_some_and(|a| a != design_alms) {
            errors.push(format!("design_alms {design_alms} differs from the recorded {alms:?}"));
        }
    }

    lines.push(format!(
        "workload {} seed {} fingerprint {:#018x}{}",
        opts.workload.name(),
        opts.seed,
        setup.fingerprint,
        if recorded.is_some() { " (matches the recorded inputs)" } else { "" }
    ));
    lines.push(format!(
        "modeled: sim_cycles {sim_cycles} cycles, design_alms {design_alms} ALMs, {} distinct jobs",
        setup.jobs_per_pass()
    ));

    let metrics = if opts.trace {
        let mut phases = timed_loop(
            &setup,
            opts.seconds,
            &mut [&mut quiet, &mut tr],
            &mut reference,
            &mut next_job,
        );
        let traced = phases.pop().expect("a traced phase");
        let plain = phases.pop().expect("an untraced phase");
        for ph in [&plain, &traced] {
            attempted += ph.samples.len() as u64;
            errors.extend(ph.errors.iter().cloned());
        }
        let extras = traced_extras(opts, &setup, &reference, &mut tr, &mut next_job, &mut lines);
        attempted += extras.attempted;
        errors.extend(extras.errors.iter().cloned());
        report_stepped(&setup, &extras, &mut lines);
        let m = per_layer(&setup, &reference, &plain, &traced, &extras, &tr, design_alms);
        report_self_times(&tr, &traced, &mut lines);
        if let Some(dir) = &opts.trace_dir {
            write_trace(dir, opts, &tr, &mut lines);
        }
        m
    } else {
        let ph = timed_loop(&setup, opts.seconds, &mut [&mut quiet], &mut reference, &mut next_job)
            .pop()
            .expect("one phase");
        attempted += ph.samples.len() as u64;
        errors.extend(ph.errors.iter().cloned());
        end_to_end(&setup_s, &ph, sim_cycles, &mut lines)
    };

    let failed = errors.len() as u64;
    lines.push(format!(
        "checks: {attempted} jobs attempted, {failed} failed (failed_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    ));
    for e in errors.iter().take(10) {
        lines.push(format!("  FAILED {e}"));
    }
    Ok(Report { correct: failed == 0, attempted, failed, metrics, lines })
}

fn end_to_end(
    setup_s: &[f64],
    ph: &Phase,
    sim_cycles: u64,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let ms = ph.sorted_ms();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", stats::median(setup_s));
    values.insert("jobs_per_s", ph.jobs_per_s());
    values.insert("peak_rss_mb", peak_rss_mb());
    let sim_ns: u64 = ph.ok().map(|s| s.elaborate_ns + s.run_ns).sum();
    let cycles: u64 = ph.ok().map(|s| s.cycles).sum();
    lines.push(format!(
        "set-up: median {:.4} s of {} (MAD {:.4} s)",
        stats::median(setup_s),
        setup_s.len(),
        stats::mad(setup_s)
    ));
    lines.push(format!(
        "timed: {} jobs in {} passes over {:.3} s wall, {:.3} s CPU, {} client thread(s); \
         jobs_per_s is the median pass rate per CPU second (pass-to-pass IQR share {:.4}; \
         {:.1} jobs per wall second)",
        ph.samples.len(),
        ph.pass_rates.len(),
        ph.wall_ns as f64 / 1e9,
        ph.cpu_ns as f64 / 1e9,
        ph.jobs,
        if ph.pass_rates.len() > 1 { stats::iqr_share(&ph.pass_rates) } else { 0.0 },
        ph.ok().count() as f64 / (ph.wall_ns as f64 / 1e9)
    ));
    if ms.len() > 1 {
        let [q1, _, q3] = stats::quartiles(&ms);
        values.insert("job_ms_p50", stats::percentile(&ms, 50.0));
        lines.push(format!(
            "job CPU time: p50 {:.4} ms (n={}), quartiles {q1:.4}–{q3:.4} ms, MAD {:.4} ms, \
             max {:.4} ms",
            stats::percentile(&ms, 50.0),
            ms.len(),
            stats::mad(&ms),
            ms[ms.len() - 1]
        ));
        match stats::tail(&ms) {
            Some((p, v)) => {
                values.insert("job_ms_tail", v);
                lines.push(format!("job CPU time tail: p{p} {v:.4} ms (n={})", ms.len()));
            }
            None => lines.push(format!("job CPU time tail: omitted, only {} jobs", ms.len())),
        }
    }
    if sim_ns > 0 {
        lines.push(format!(
            "simulation: {:.4} Mcyc/s over instantiate + run ({} cycles per pass)",
            cycles as f64 / (sim_ns as f64 / 1e3),
            sim_cycles
        ));
    }
    END_TO_END
        .iter()
        .filter_map(|&(name, unit)| values.get(name).map(|&value| Metric { name, value, unit }))
        .collect()
}

/// What the traced run does besides the timed loops.
#[derive(Default)]
struct Extras {
    attempted: u64,
    errors: Vec<String>,
    tasks: u64,
    nodes: u64,
    /// `(event, stepped)` run ns of back-to-back reruns, per key.
    pairs: Vec<Vec<(u64, u64)>>,
}

fn traced_extras(
    opts: &Options,
    setup: &Setup,
    reference: &Reference,
    tr: &mut Tracer,
    next_job: &mut u64,
    lines: &mut Vec<String>,
) -> Extras {
    let mut ex = Extras { pairs: vec![Vec::new(); setup.jobs_per_pass()], ..Extras::default() };
    tr.set_job(*next_job);
    *next_job += 1;
    tr.enter("extra");
    for m in work::distinct_modules(setup) {
        match work::stage_split(&m, tr) {
            Ok((t, n)) => {
                ex.tasks += t;
                ex.nodes += n;
            }
            Err(e) => ex.errors.push(format!("{}: {e}", m.name)),
        }
    }
    // The front end's parse on its own, outside the timed jobs, so traced
    // and untraced passes run the same work.
    for prog in &setup.hls {
        if let work::HlsInput::Source(src) = prog.input {
            for _ in 0..PARSE_REPS {
                let (ast, _) = tr.timed("lang.parse", || tapas_lang::parse(src));
                ex.attempted += 1;
                if let Err(e) = ast {
                    ex.errors.push(format!("{}: parse: {e}", prog.label));
                }
            }
        }
    }
    tr.exit();
    // Rerun every simulation on the event core and then the stepped core,
    // back to back so host drift cancels in the ratio. The stepped core
    // must reproduce every statistic but the event-core counters.
    let strip = |s: &SimStats| SimStats { engine_events: 0, skipped_cycles: 0, ..s.clone() };
    for (key, job) in setup.sim.iter().enumerate() {
        for _ in 0..STEPPED_PAIRS {
            let mut pair = [0u64; 2];
            for (leg, stepped) in [false, true].into_iter().enumerate() {
                tr.set_job(*next_job);
                *next_job += 1;
                let mut rec =
                    work::guarded(key, tr, |tr, rec| work::run_sim(job, stepped, tr, rec));
                ex.attempted += 1;
                if let (Some(sim), Some(want)) = (&rec.sim, &reference.stats[key]) {
                    let same =
                        if stepped { strip(&sim.stats) == strip(want) } else { sim.stats == *want };
                    if !same {
                        let core = if stepped { "stepped" } else { "event" };
                        rec.error =
                            Some(format!("{}: {core} core rerun statistics differ", job.label));
                    }
                    pair[leg] = sim.run_ns;
                }
                ex.errors.extend(rec.error);
            }
            ex.pairs[key].push((pair[0], pair[1]));
        }
    }
    if opts.workload == Workload::SpawnChain {
        ntasks_sweep(setup, lines, &mut ex);
    }
    ex
}

/// Host cost per engine event as the queue grows past the exact bound,
/// with the chain itself unchanged.
fn ntasks_sweep(setup: &Setup, lines: &mut Vec<String>, ex: &mut Extras) {
    let Some(job) = setup.sim.iter().min_by_key(|j| j.knobs.spawn_cost) else { return };
    lines.push(format!("spawn_chain queue sweep ({}):", job.label));
    for factor in [1, 2, 4, 8] {
        let cfg = tapas::AcceleratorConfig { ntasks: job.knobs.ntasks * factor, ..job.cfg.clone() };
        let run = || -> Result<(u64, u64), String> {
            let mut acc = job.design.instantiate(&cfg).map_err(|e| e.to_string())?;
            acc.mem_mut().write_bytes(0, &job.mem);
            let t = Instant::now();
            let out = acc.run(job.func, &job.args).map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as u64;
            if acc.mem().read_bytes(job.output.0, job.output.1) != &job.golden[..] {
                return Err("output differs from the interpreter golden run".into());
            }
            Ok((ns, out.stats.engine_events))
        };
        ex.attempted += 1;
        match run() {
            Ok((ns, events)) => lines.push(format!(
                "  ntasks {:>6}: {events} events, {:.1} ns/event",
                cfg.ntasks,
                ns as f64 / events.max(1) as f64
            )),
            Err(e) => ex.errors.push(format!("{} at ntasks {}: {e}", job.label, cfg.ntasks)),
        }
    }
}

/// Event vs stepped core, per distinct simulation job.
fn report_stepped(setup: &Setup, ex: &Extras, lines: &mut Vec<String>) {
    if setup.sim.is_empty() || setup.workload == Workload::DseSweep {
        return;
    }
    lines.push(format!(
        "event vs stepped core (run ms, medians of {STEPPED_PAIRS} back-to-back pairs):"
    ));
    for (key, job) in setup.sim.iter().enumerate() {
        let pairs = &ex.pairs[key];
        if pairs.is_empty() {
            continue;
        }
        let leg = |f: fn(&(u64, u64)) -> u64| {
            stats::median(&pairs.iter().map(|p| f(p) as f64 / 1e6).collect::<Vec<_>>())
        };
        let ratios: Vec<f64> = pairs.iter().map(|&(e, s)| ratio(s as f64, e as f64)).collect();
        lines.push(format!(
            "  {:<16} event {:>10.3} ms  stepped {:>10.3} ms  stepped/event {:>6.3}x",
            job.label,
            leg(|p| p.0),
            leg(|p| p.1),
            stats::median(&ratios)
        ));
    }
}

fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect();
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(
    setup: &Setup,
    reference: &Reference,
    plain: &Phase,
    traced: &Phase,
    ex: &Extras,
    tr: &Tracer,
    design_alms: u64,
) -> Vec<Metric> {
    let spans = tr.spans();
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, span, scale) in [
        ("lang.parse_us", "lang.parse", 1.0),
        ("ir.print_us", "ir.print", 1.0),
        ("ir.text_parse_us", "ir.text_parse", 1.0),
        ("ir.verify_us", "ir.verify", 1.0),
        ("ir.interp_ms", "ir.interp", 1e-3),
        ("lint.us", "lint", 1.0),
        ("analyze.us", "analyze", 1.0),
        ("core.compile_us", "core.compile", 1.0),
        ("core.emit_chisel_us", "core.emit_chisel", 1.0),
        ("core.emit_verilog_us", "core.emit_verilog", 1.0),
        ("res.estimate_us", "res.estimate", 1.0),
        ("task.extract_us", "task.extract", 1.0),
        ("dfg.lower_us", "dfg.lower", 1.0),
        ("sim.elaborate_us", "sim.elaborate", 1.0),
        ("sim.run_ms", "sim.run", 1e-3),
        ("snapshot.encode_us", "snapshot.encode", 1.0),
        ("snapshot.decode_us", "snapshot.decode", 1.0),
        ("snapshot.resume_ms", "snapshot.resume", 1e-3),
    ] {
        v.insert(metric, span_median_us(spans, span) * scale);
    }
    // The front end's lowering is not public on its own: compile minus parse.
    let lang_compile = span_median_us(spans, "lang.compile");
    v.insert("lang.lower_us", (lang_compile - v["lang.parse_us"]).max(0.0));

    v.insert("ir.insts", setup.insts as f64);
    v.insert(
        "core.rtl_bytes",
        reference.rtl.iter().flatten().map(|(c, s)| c.len() + s.len()).sum::<usize>() as f64,
    );
    v.insert("res.design_alms", design_alms as f64);
    v.insert("task.tasks", ex.tasks as f64);
    v.insert("dfg.nodes", ex.nodes as f64);

    // Modeled counters over one pass of distinct jobs.
    let all: Vec<&SimStats> = reference.stats.iter().flatten().collect();
    let sum = |f: &dyn Fn(&SimStats) -> u64| all.iter().map(|s| f(s)).sum::<u64>() as f64;
    let cycles = sum(&|s| s.cycles);
    v.insert("sim.cycles", cycles);
    v.insert("sim.engine_events", sum(&|s| s.engine_events));
    v.insert("sim.skipped_cycles", sum(&|s| s.skipped_cycles));
    v.insert("sim.skip_ratio", ratio(sum(&|s| s.skipped_cycles), cycles));
    let busy = sum(&|s| s.units.iter().map(|u| u.busy_tile_cycles).sum());
    let capacity = sum(&|s| s.units.iter().map(|u| u.tiles as u64 * s.cycles).sum());
    v.insert("sim.tile_util", ratio(busy, capacity));
    let (hits, misses, merges) =
        (sum(&|s| s.cache.hits), sum(&|s| s.cache.misses), sum(&|s| s.cache.mshr_merges));
    v.insert("mem.l1_hits", hits);
    v.insert("mem.l1_misses", misses);
    v.insert("mem.l1_miss_rate", ratio(misses, hits + misses + merges));
    v.insert("mem.mshr_merges", merges);
    v.insert("mem.mshr_rejections", sum(&|s| s.cache.rejections));
    v.insert("mem.bank_conflicts", sum(&|s| s.bank_conflicts));
    v.insert("mem.dram_reads", sum(&|s| s.dram_reads));
    v.insert("mem.dram_writes", sum(&|s| s.dram_writes));
    v.insert("mem.databox_issued", sum(&|s| s.databox_issued));
    v.insert("mem.cache_stalls", sum(&|s| s.cache_stalls));
    let spawns = sum(&|s| s.spawns);
    v.insert("task.spawns", spawns);
    v.insert("task.spawn_latency_avg", ratio(sum(&|s| s.total_spawn_latency), spawns));
    v.insert("task.spawn_stalls", sum(&|s| s.units.iter().map(|u| u.spawn_stalls).sum()));
    v.insert(
        "task.queue_peak",
        all.iter().flat_map(|s| &s.units).map(|u| u.queue_peak).max().unwrap_or(0) as f64,
    );
    let steals = sum(&|s| s.steals);
    v.insert("task.steals", steals);
    v.insert("task.steal_success", ratio(steals, steals + sum(&|s| s.steal_fail)));
    v.insert("task.spills", sum(&|s| s.spills));
    v.insert("task.refills", sum(&|s| s.refills));
    v.insert("task.inline_spawns", sum(&|s| s.inline_spawns));
    v.insert("snapshot.bytes", reference.snap_bytes.iter().flatten().sum::<usize>() as f64);

    // Host time of the traced loop.
    let run_ns: u64 = traced.ok().map(|s| s.run_ns).sum();
    let sim_ns: u64 = traced.ok().map(|s| s.elaborate_ns + s.run_ns).sum();
    let sim_cycles: u64 = traced.ok().map(|s| s.cycles).sum();
    let events: u64 = traced.ok().map(|s| s.events).sum();
    v.insert("sim.mcycles_per_s", ratio(sim_cycles as f64, sim_ns as f64 / 1e3));
    v.insert("sim.host_ns_per_event", ratio(run_ns as f64, events as f64));
    let (event, stepped) = ex
        .pairs
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(e, s), &(pe, ps)| (e + pe as f64, s + ps as f64));
    v.insert("sim.stepped_speedup", ratio(stepped, event));

    if setup.workload == Workload::DseSweep {
        let cells: Vec<f64> = traced.ok().map(|r| r.wall_ns as f64 / 1e6).collect();
        let waits: Vec<f64> = traced.ok().map(|r| r.queue_wait_ns as f64 / 1e6).collect();
        if !cells.is_empty() {
            v.insert("exec.cell_ms_p50", stats::median(&cells));
            v.insert("exec.queue_wait_ms", stats::median(&waits));
        }
        let cell_ns: u64 = traced.samples.iter().map(|s| s.wall_ns).sum();
        v.insert(
            "exec.overhead_frac",
            1.0 - ratio(cell_ns as f64, traced.jobs as f64 * traced.wall_ns as f64),
        );
        let retries: u32 = traced.samples.iter().map(|s| s.attempts.saturating_sub(1)).sum();
        v.insert("exec.retries", retries as f64);
    }

    v.insert("trace.jobs_per_s", traced.jobs_per_s());
    v.insert("trace.untraced_jobs_per_s", plain.jobs_per_s());
    v.insert("trace.overhead_frac", 1.0 - ratio(traced.jobs_per_s(), plain.jobs_per_s()));
    v.insert("trace.attributed_frac", attributed_frac(spans, traced.span_range));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, value: v.get(name).copied().unwrap_or(0.0), unit })
        .collect()
}

/// Share of the traced jobs' wall time that layer spans cover.
fn attributed_frac(spans: &[Span], (lo, hi): (usize, usize)) -> f64 {
    let own = trace::self_times(spans);
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for i in lo..hi {
        if spans[i].name == "job" {
            wall += spans[i].dur_ns();
            unattributed += own[i];
        }
    }
    1.0 - ratio(unattributed as f64, wall as f64)
}

fn report_self_times(tr: &Tracer, traced: &Phase, lines: &mut Vec<String>) {
    let (lo, hi) = traced.span_range;
    let own = trace::self_by_layer(tr.spans(), lo..hi);
    let total: u64 = own.values().sum();
    lines.push(format!(
        "self time per layer over {} traced jobs ({:.3} s of job wall; `job` = not inside a layer call):",
        traced.samples.len(),
        total as f64 / 1e9
    ));
    for (layer, ns) in &own {
        lines.push(format!(
            "  {layer:<10} {:>12.3} ms {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * ratio(*ns as f64, total as f64)
        ));
    }
    lines.push("spans over the whole traced run (calls, median, total, self):".into());
    for (name, (calls, total_ns, self_ns)) in trace::by_name(tr.spans()) {
        lines.push(format!(
            "  {name:<20} {calls:>8} {:>12.2} us {:>12.3} ms {:>12.3} ms",
            span_median_us(tr.spans(), name),
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
}

/// Spans written to the Chrome trace file, at most (the earliest ones).
const TRACE_FILE_SPANS: usize = 50_000;

fn write_trace(dir: &std::path::Path, opts: &Options, tr: &Tracer, lines: &mut Vec<String>) {
    let tracks = tr.spans().iter().map(|s| s.tid).max().unwrap_or(0);
    let mut names = vec!["main".to_string()];
    names.extend((1..=tracks).map(|t| format!("sweep cells, track {t}")));
    let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
    let spans = &tr.spans()[..tr.spans().len().min(TRACE_FILE_SPANS)];
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(spans, &names)));
    lines.push(match written {
        Ok(()) => format!(
            "chrome trace: {} ({} of {} spans)",
            path.display(),
            spans.len(),
            tr.spans().len()
        ),
        Err(e) => format!("chrome trace: not written to {}: {e}", path.display()),
    });
}
