//! The experiment registry: every `reproduce` subcommand on top of the
//! sweep executor.
//!
//! An [`Experiment`] is a table or figure of the paper, or a harness
//! experiment: a name, a *cell decomposition* (independent deterministic
//! units of work, one [`tapas_exec::Cell`] each) and a *fold* turning the
//! executor's per-cell records back into an [`ExperimentReport`] — the
//! rendered text, the JSON dump, and an optional failure message.
//!
//! The split is what buys fault tolerance for free: the executor owns
//! scheduling, panic isolation, watchdog timeouts, retries and the
//! checkpoint journal, while each experiment only declares *what* its
//! cells are and *how* its rows render. Every cell returns its rows
//! already encoded as a [`JsonValue`]; the journal stores that value and
//! the fold decodes typed rows from it, so a fresh run and a resumed run
//! fold the same bytes. `all` is one sweep over its sections' cells, and
//! each section folds its own slice of the records.

use crate::experiments as exp;
use crate::json::{self, FromJson, JsonValue, ToJson};
use std::fmt::Write as _;
use tapas_exec as exec;
use tapas_integration::SWEEP_SEED;
use tapas_workloads::{suite_eval, suite_small, BuiltWorkload};

/// What one experiment run produced.
pub struct ExperimentReport {
    /// Human-readable table(s), ready to print.
    pub text: String,
    /// JSON dump of the raw rows (always carries `schema_version`).
    pub json: String,
    /// `Some(reason)` if the run surfaced a failure the caller must turn
    /// into a non-zero exit (e.g. a silently-wrong fault run, or an
    /// incomplete sweep).
    pub failure: Option<String>,
}

impl ExperimentReport {
    /// Decode the `rows` member of the JSON dump as typed rows.
    ///
    /// # Errors
    ///
    /// Fails when the dump has no `rows` array or a row does not decode.
    pub fn rows<R: FromJson>(&self) -> Result<Vec<R>, String> {
        let doc = json::parse(&self.json)?;
        Vec::from_json(doc.get("rows").ok_or("the dump has no `rows`")?)
    }
}

/// The checkpoint-journal codec shared by every experiment: a cell's
/// payload is its rows' JSON value, journaled as is.
pub fn codec() -> exec::Codec<JsonValue> {
    exec::Codec { encode: encode_value, decode: |v| Ok(v.clone()) }
}

/// Encode a parsed JSON value in the form [`ToJson`] writes it, so
/// `encode_value(&parse(x.to_json())) == x.to_json()`.
pub fn encode_value(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => b.write_json(out),
        JsonValue::Num(n) => n.write_json(out),
        JsonValue::Str(s) => s.write_json(out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                key.write_json(out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Runtime knobs a `reproduce` invocation can thread into an
/// experiment's cell decomposition. Defaults reproduce the fixed CI
/// campaign; flags like `fuzzsim --seeds N` override one knob without
/// perturbing any other experiment.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Override the fuzzing campaign's generated-program count
    /// (`fuzzsim --seeds N`); `None` keeps [`FUZZ_DEFAULT_SEEDS`].
    pub seeds: Option<usize>,
}

/// Generated programs per default `reproduce fuzzsim` campaign.
pub const FUZZ_DEFAULT_SEEDS: usize = 8;

/// Feature configurations sampled against each generated program (the
/// first is always the plain baseline).
pub const FUZZ_CONFIGS_PER_SEED: usize = 4;

/// A named, JSON-emitting experiment, decomposed into executor cells.
pub struct Experiment {
    /// Subcommand name (`reproduce <name>`), and the experiment's key in
    /// the `all` document.
    pub name: &'static str,
    /// One-line description for usage text and `--list`.
    pub summary: &'static str,
    /// Build the experiment's cell list (cheap: closures only, no
    /// simulation happens until the executor runs them).
    pub cells: fn(&RunOpts) -> Vec<exec::Cell<JsonValue>>,
    /// Fold the executor's records (spec order, failures included with
    /// `payload: None`).
    fold: fn(&[exec::CellRecord<JsonValue>]) -> Fold,
}

/// A folded experiment: its text, the members of its JSON document after
/// `schema_version`, and the failure its rows surfaced.
struct Fold {
    text: String,
    members: Vec<(&'static str, String)>,
    failure: Option<String>,
}

impl Experiment {
    /// Run the experiment serially to completion — one worker, no
    /// watchdog, no retry: the same cells the CLI runs, inline.
    pub fn run(&self) -> ExperimentReport {
        self.run_sharded(&exec::Policy::serial(), None).0
    }

    /// [`Experiment::run_sharded_with`] with default [`RunOpts`].
    pub fn run_sharded(
        &self,
        policy: &exec::Policy,
        journal: Option<&exec::Journal<JsonValue>>,
    ) -> (ExperimentReport, exec::SweepReport<JsonValue>) {
        self.run_sharded_with(&RunOpts::default(), policy, journal)
    }

    /// Run the experiment's cells under `policy`, optionally journaling
    /// to (and replaying from) `journal`. Any cell that did not succeed —
    /// and any cell never attempted — is folded into the report's
    /// `failure`, so callers turn an incomplete sweep into a non-zero
    /// exit uniformly.
    pub fn run_sharded_with(
        &self,
        opts: &RunOpts,
        policy: &exec::Policy,
        journal: Option<&exec::Journal<JsonValue>>,
    ) -> (ExperimentReport, exec::SweepReport<JsonValue>) {
        let cells = (self.cells)(opts);
        let sweep = exec::run_sweep(&cells, policy, journal);
        let mut report = self.report(&sweep.records);
        if !sweep.complete_ok() {
            let mut lines: Vec<String> = sweep
                .failures()
                .iter()
                .map(|r| format!("{} {} ({})", r.id, r.status.label(), r.detail))
                .collect();
            if sweep.skipped > 0 {
                lines.push(format!("{} cell(s) not attempted", sweep.skipped));
            }
            let why = format!("sweep incomplete: {}", lines.join("; "));
            report.failure = Some(match report.failure.take() {
                Some(prev) => format!("{prev}; {why}"),
                None => why,
            });
        }
        (report, sweep)
    }

    /// Fold `records` into the report: text, `{schema_version, …}` JSON
    /// and the failure the rows surfaced.
    fn report(&self, records: &[exec::CellRecord<JsonValue>]) -> ExperimentReport {
        let Fold { text, members, failure } = (self.fold)(records);
        let mut json = format!("{{\"schema_version\":{}", exp::JSON_SCHEMA_VERSION);
        for (key, value) in members {
            json.push(',');
            key.write_json(&mut json);
            json.push(':');
            json.push_str(&value);
        }
        json.push('}');
        ExperimentReport { text, json, failure }
    }
}

/// A row type one experiment folds its cells into, with its renderer.
trait Rows: ToJson + FromJson {
    /// Render the folded rows as the experiment's text.
    fn render(rows: &[Self], out: &mut String);

    /// Post-process the folded rows, e.g. normalize against a baseline
    /// row that ran in another cell.
    fn finish(_rows: &mut [Self]) {}

    /// The failure the rows surface, if any.
    fn failure(_rows: &[Self]) -> Option<String> {
        None
    }

    /// The rows' value in the JSON document.
    fn encode(rows: Vec<Self>) -> String {
        rows.to_json()
    }
}

/// The one fold: decode every succeeded cell's rows in spec order, then
/// render and encode them. A payload that does not decode fails the
/// experiment rather than dropping its rows silently.
fn fold<R: Rows>(records: &[exec::CellRecord<JsonValue>]) -> Fold {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for record in records {
        let Some(payload) = &record.payload else { continue };
        match Vec::<R>::from_json(payload) {
            Ok(mut cell_rows) => rows.append(&mut cell_rows),
            Err(e) => failures.push(format!("{}: payload does not decode: {e}", record.id)),
        }
    }
    R::finish(&mut rows);
    let mut text = String::new();
    R::render(&rows, &mut text);
    failures.splice(0..0, R::failure(&rows));
    let failure = (!failures.is_empty()).then(|| failures.join("; "));
    Fold { text, members: vec![("rows", R::encode(rows))], failure }
}

/// The experiments `all` runs, in print order; each name is also its key
/// in the `all` document.
const ALL: &[&str] = &[
    "table2",
    "spawn",
    "fig13",
    "table3",
    "fig14",
    "fig15",
    "fig16",
    "table4",
    "fig17",
    "table5",
    "grain_ablation",
    "mem_ablation",
    "elision_ablation",
    "profile",
    "faults",
    "lint",
];

fn part(name: &str) -> &'static Experiment {
    find(name).expect("`all` names registered experiments")
}

/// The experiment owning a cell: the first segment of its id.
fn owner(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

fn all_cells(opts: &RunOpts) -> Vec<exec::Cell<JsonValue>> {
    ALL.iter().flat_map(|name| (part(name).cells)(opts)).collect()
}

/// Fold `all`: the records are in spec order, so each section's are one
/// contiguous run, folded by the section itself.
fn fold_all(records: &[exec::CellRecord<JsonValue>]) -> Fold {
    let mut all = Fold { text: String::new(), members: Vec::new(), failure: None };
    let mut failures = Vec::new();
    for &name in ALL {
        let start = records.iter().position(|r| owner(&r.id) == name).unwrap_or(records.len());
        let len = records[start..].iter().take_while(|r| owner(&r.id) == name).count();
        let section = (part(name).fold)(&records[start..start + len]);
        all.text.push_str(&section.text);
        all.members.extend(section.members.into_iter().map(|(_, value)| (name, value)));
        failures.extend(section.failure.map(|why| format!("{name}: {why}")));
    }
    all.failure = (!failures.is_empty()).then(|| failures.join("; "));
    all
}

/// Wrap a cell body's rows as the cell's JSON payload.
fn payload<R: ToJson>(rows: Vec<R>) -> Result<JsonValue, String> {
    json::parse(&rows.to_json())
}

/// A cell whose body returns typed rows.
fn cell<R: ToJson>(
    id: impl Into<String>,
    run: impl Fn() -> Result<Vec<R>, String> + Send + Sync + 'static,
) -> exec::Cell<JsonValue> {
    exec::Cell::new(id, move || payload(run()?))
}

/// One cell per program, named `<experiment>/<program>`.
fn per_program<R: ToJson + 'static>(
    name: &str,
    programs: Vec<BuiltWorkload>,
    rows: fn(&BuiltWorkload) -> Vec<R>,
) -> Vec<exec::Cell<JsonValue>> {
    programs
        .into_iter()
        .map(|wl| cell(format!("{name}/{}", wl.name), move || Ok(rows(&wl))))
        .collect()
}

/// All experiments the runner knows about.
pub fn registry() -> &'static [Experiment] {
    const REGISTRY: &[Experiment] = &[
        Experiment {
            name: "table2",
            summary: "Table II: benchmark properties",
            cells: |_| vec![cell("table2", || Ok(exp::table2()))],
            fold: fold::<exp::Table2Row>,
        },
        Experiment {
            name: "spawn",
            summary: "§V-A: task spawn latency and rate",
            cells: |_| vec![cell("spawn", || Ok(vec![exp::spawn_latency()]))],
            fold: fold::<exp::SpawnLatencyResult>,
        },
        Experiment {
            name: "fig13",
            summary: "Fig. 13: spawn-rate scaling with tiles vs software",
            cells: |_| {
                exp::FIG13_ADDERS
                    .into_iter()
                    .map(|adders| {
                        cell(format!("fig13/{adders}"), move || Ok(exp::fig13_rows(adders)))
                    })
                    .collect()
            },
            fold: fold::<exp::Fig13Row>,
        },
        Experiment {
            name: "table3",
            summary: "Table III: FPGA utilization of the microbenchmark",
            cells: |_| vec![cell("table3", || Ok(exp::table3()))],
            fold: fold::<exp::Table3Row>,
        },
        Experiment {
            name: "fig14",
            summary: "Fig. 14: ALM utilization by sub-block",
            cells: |_| vec![cell("fig14", || Ok(exp::fig14()))],
            fold: fold::<exp::Fig14Row>,
        },
        Experiment {
            name: "fig15",
            summary: "Fig. 15: performance scaling with tiles",
            cells: |_| per_program("fig15", suite_eval(), exp::fig15_rows),
            fold: fold::<exp::Fig15Row>,
        },
        Experiment {
            name: "fig16",
            summary: "Fig. 16: performance vs an Intel i7",
            cells: |_| per_program("fig16", suite_eval(), exp::fig16_rows),
            fold: fold::<exp::Fig16Row>,
        },
        Experiment {
            name: "table4",
            summary: "Table IV: resources and power on the Cyclone V",
            cells: |_| vec![cell("table4", || Ok(exp::table4()))],
            fold: fold::<exp::Table4Row>,
        },
        Experiment {
            name: "fig17",
            summary: "Fig. 17: performance/watt vs an Intel i7",
            cells: |_| per_program("fig17", suite_eval(), exp::fig17_rows),
            fold: fold::<exp::Fig17Row>,
        },
        Experiment {
            name: "table5",
            summary: "Table V: Intel HLS vs TAPAS",
            cells: |_| {
                exp::table5_cases()
                    .into_iter()
                    .map(|(wl, words, streams)| {
                        let id = format!("table5/{}", wl.name);
                        cell(id, move || Ok(exp::table5_rows(&wl, words, streams)))
                    })
                    .collect()
            },
            fold: fold::<exp::Table5Row>,
        },
        Experiment {
            name: "grain_ablation",
            summary: "ablation: cilk_for grainsize on the i7 baseline",
            cells: |_| vec![cell("grain_ablation", || Ok(exp::grain_ablation()))],
            fold: fold::<exp::GrainAblationRow>,
        },
        Experiment {
            name: "mem_ablation",
            summary: "ablation: cache miss parallelism (MSHRs, issue width, L2)",
            cells: |_| {
                exp::MEM_ABLATION_POINTS
                    .into_iter()
                    .map(|(mshrs, width, l2)| {
                        let id =
                            format!("mem_ablation/{mshrs}x{width}{}", if l2 { "+l2" } else { "" });
                        cell(id, move || Ok(vec![exp::mem_ablation_row(mshrs, width, l2)]))
                    })
                    .collect()
            },
            fold: fold::<exp::MemAblationRow>,
        },
        Experiment {
            name: "elision_ablation",
            summary: "ablation: static task elision",
            cells: |_| vec![cell("elision_ablation", || Ok(exp::elision_ablation()))],
            fold: fold::<exp::ElisionAblationRow>,
        },
        Experiment {
            name: "lint",
            summary: "static race detection over the suite and racy variants",
            cells: |_| vec![cell("lint", || Ok(exp::lint_rows()))],
            fold: fold::<exp::LintRow>,
        },
        Experiment {
            name: "profile",
            summary: "cycle attribution: what bounds each benchmark",
            cells: |_| per_program("profile", suite_small(), |wl| vec![exp::profile_row(wl)]),
            fold: fold::<exp::ProfileRow>,
        },
        Experiment {
            name: "faults",
            summary: "fault-injection matrix (masked or detected, never silent)",
            cells: |_| per_program("faults", suite_small(), exp::fault_rows_for),
            fold: fold::<exp::FaultRow>,
        },
        Experiment {
            name: "stress",
            summary: "undersized-queue stress matrix with admission control",
            cells: stress_cells,
            fold: fold::<exp::StressRow>,
        },
        Experiment {
            name: "tune",
            summary: "opt-in work stealing + banked L1 tuning matrix",
            cells: |_| per_program("tune", exp::tune_programs(), |wl| exp::tune_rows(wl, 4)),
            fold: fold::<exp::TuneRow>,
        },
        Experiment {
            name: "analyze",
            summary: "static work/span bounds vs measured counters",
            cells: |_| {
                per_program("analyze", exp::analyze_programs(), |wl| vec![exp::analyze_row(wl)])
            },
            fold: fold::<exp::AnalyzeRow>,
        },
        Experiment {
            name: "differential",
            summary: "seeded per-workload config sweeps vs the golden model",
            cells: differential_cells,
            fold: fold::<exp::DifferentialRow>,
        },
        Experiment {
            name: "chaos",
            summary: "kill-and-resume snapshot identity under seeded configs",
            cells: chaos_cells,
            fold: fold::<exp::ChaosRow>,
        },
        Experiment {
            name: "fuzzsim",
            summary: "generated task-graph traffic vs the golden model (--seeds N)",
            cells: fuzzsim_cells,
            fold: fold::<exp::FuzzRow>,
        },
        Experiment {
            name: "all",
            summary: "every paper section, profile, faults and lint as one sweep",
            cells: all_cells,
            fold: fold_all,
        },
    ];
    REGISTRY
}

/// Look an experiment up by its subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.name == name)
}

fn stress_cells(_opts: &RunOpts) -> Vec<exec::Cell<JsonValue>> {
    let mut cells = Vec::new();
    for wl in exp::stress_programs() {
        for &ntasks in exp::STRESS_QUEUE_SIZES {
            let wl = wl.clone();
            let id = format!("stress/{}/{}", wl.name, ntasks);
            cells.push(cell(id, move || Ok(vec![exp::stress_row(&wl, ntasks)])));
        }
    }
    cells
}

/// Load a harness cell's program and check its samples.
fn run_harness_cell(
    c: &tapas_integration::Cell,
    snapshot: Option<(&std::path::Path, u64)>,
) -> Result<(tapas_integration::Program, u64), String> {
    let program = c.source.load()?;
    let checks = c.run(&program, snapshot)?;
    Ok((program, checks as u64))
}

fn differential_cells(_opts: &RunOpts) -> Vec<exec::Cell<JsonValue>> {
    tapas_integration::differential_cells(SWEEP_SEED, 3)
        .into_iter()
        .map(|c| {
            cell(format!("differential/{}", c.source), move || {
                let (_, checks) = run_harness_cell(&c, None)?;
                Ok(vec![exp::DifferentialRow {
                    workload: c.source.to_string(),
                    seed: format!("{:#x}", c.seed),
                    samples: c.samples as u64,
                    checks,
                }])
            })
        })
        .collect()
}

fn chaos_cells(_opts: &RunOpts) -> Vec<exec::Cell<JsonValue>> {
    tapas_integration::chaos_cells(SWEEP_SEED, 2)
        .into_iter()
        .map(|c| {
            let id = format!("chaos/{}", c.source);
            // Resumable: with `--snapshot-every N` the executor hands the
            // cell a stable snapshot path, and each trial's killed run is
            // additionally verified through the on-disk ladder.
            exec::Cell::resumable(id, move |ctx: &exec::CellCtx| {
                let spec = ctx.snapshot.as_ref().map(|s| (s.path.as_path(), s.every));
                let (_, verified) = run_harness_cell(&c, spec)?;
                payload(vec![exp::ChaosRow {
                    workload: c.source.to_string(),
                    seed: format!("{:#x}", c.seed),
                    trials: c.samples as u64,
                    verified,
                }])
            })
        })
        .collect()
}

fn fuzzsim_cells(opts: &RunOpts) -> Vec<exec::Cell<JsonValue>> {
    let seeds = opts.seeds.unwrap_or(FUZZ_DEFAULT_SEEDS);
    tapas_integration::fuzz::fuzz_cells(SWEEP_SEED, seeds, FUZZ_CONFIGS_PER_SEED)
        .into_iter()
        .map(|c| {
            cell(format!("fuzzsim/gen/{}", c.source), move || {
                let (program, checks) = run_harness_cell(&c, None)?;
                Ok(vec![exp::FuzzRow {
                    seed: c.source.to_string(),
                    shape: program.shape.to_string(),
                    configs: c.samples as u64,
                    checks,
                }])
            })
        })
        .collect()
}

fn hdr(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n=== {title} ===");
}

impl Rows for exp::Table2Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Table II: benchmark properties");
        let _ = writeln!(
            out,
            "{:<12} {:<26} {:>6} {:>6} {:>6}",
            "name", "HLS challenge", "insts", "#mem", "tasks"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:<26} {:>6} {:>6} {:>6}",
                r.name, r.challenge, r.per_task_insts, r.mem_ops, r.tasks
            );
        }
    }
}

/// §V-A is one measurement: its value in the `all` document is the
/// object itself, not a one-row array.
impl Rows for exp::SpawnLatencyResult {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "§V-A: task spawn overhead");
        for r in rows {
            let _ = writeln!(
                out,
                "min spawn latency: {} cycles (paper: ~10); sustained {:.1} M spawns/s @ {:.0} MHz (paper: 40M)",
                r.min_latency_cycles,
                r.spawns_per_sec / 1e6,
                r.clock_mhz
            );
        }
    }

    fn encode(rows: Vec<Self>) -> String {
        rows.first().map_or_else(|| "null".to_string(), ToJson::to_json)
    }
}

impl Rows for exp::Fig13Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fig. 13: spawn-rate scaling (Arria 10), Madds/s");
        let _ = write!(out, "{:>8}", "adders");
        for t in 1..=5 {
            let _ = write!(out, " {:>9}", format!("{t} tile{}", if t > 1 { "s" } else { "" }));
        }
        let _ = writeln!(out, " {:>9}", "software");
        let mut by_adders: Vec<u32> = rows.iter().map(|r| r.adders).collect();
        by_adders.dedup();
        for a in by_adders {
            let _ = write!(out, "{a:>8}");
            for t in 1..=5usize {
                let v = rows
                    .iter()
                    .find(|r| r.adders == a && r.tiles == Some(t))
                    .map(|r| r.madds_per_sec)
                    .unwrap_or(0.0);
                let _ = write!(out, " {v:>9.1}");
            }
            let sw = rows
                .iter()
                .find(|r| r.adders == a && r.tiles.is_none())
                .map(|r| r.madds_per_sec)
                .unwrap_or(0.0);
            let _ = writeln!(out, " {sw:>9.1}");
        }
    }
}

impl Rows for exp::Table3Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Table III: FPGA utilization (microbenchmark)");
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>5} {:>7} {:>7} {:>7} {:>5} {:>7}",
            "board", "tiles", "ins", "MHz", "ALM", "Reg", "BRAM", "%chip"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>5} {:>7.0} {:>7} {:>7} {:>5} {:>6.0}%",
                r.board, r.tiles, r.insts, r.mhz, r.alm, r.reg, r.bram, r.chip_pct
            );
        }
    }
}

impl Rows for exp::Fig14Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fig. 14: ALM utilization by sub-block (%)");
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>9} {:>8} {:>6}",
            "config", "tiles", "par-for", "taskctrl", "mem-arb", "misc"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<10} {:>6.1}% {:>8.1}% {:>8.1}% {:>7.1}% {:>5.1}%",
                r.config,
                r.tiles_pct,
                r.parallel_for_pct,
                r.task_ctrl_pct,
                r.mem_arb_pct,
                r.misc_pct
            );
        }
    }
}

impl Rows for exp::Fig15Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fig. 15: performance scaling with tiles (normalized)");
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9} {:>9}",
            "bench", "1 tile", "2 tiles", "4 tiles", "8 tiles"
        );
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.dedup();
        for n in names {
            let _ = write!(out, "{n:<12}");
            for t in [1usize, 2, 4, 8] {
                let v = rows
                    .iter()
                    .find(|r| r.name == n && r.tiles == t)
                    .map(|r| r.speedup)
                    .unwrap_or(0.0);
                let _ = write!(out, " {v:>8.2}x");
            }
            let _ = writeln!(out);
        }
    }
}

impl Rows for exp::Fig16Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fig. 16: performance vs Intel i7 (gain > 1 means FPGA faster)");
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>8}",
            "bench", "board", "fpga ms", "i7 ms", "gain"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10.3} {:>10.3} {:>7.2}x",
                r.name, r.board, r.fpga_ms, r.i7_ms, r.gain
            );
        }
    }
}

impl Rows for exp::Table4Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Table IV: resources & power (Cyclone V)");
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>6} {:>7} {:>7} {:>5} {:>8}",
            "bench", "tiles", "MHz", "ALMs", "Regs", "BRAM", "Power(W)"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>6.0} {:>7} {:>7} {:>5} {:>8.3}",
                r.name, r.tiles, r.mhz, r.alms, r.regs, r.brams, r.power_w
            );
        }
    }
}

impl Rows for exp::Fig17Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fig. 17: performance/watt vs Intel i7");
        let _ = writeln!(out, "{:<12} {:>10} {:>10}", "bench", "board", "gain");
        for r in rows {
            let _ = writeln!(out, "{:<12} {:>10} {:>9.1}x", r.name, r.board, r.perf_per_watt_gain);
        }
    }
}

impl Rows for exp::Table5Row {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Table V: Intel HLS vs TAPAS (Cyclone V)");
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>6} {:>7} {:>7} {:>5} {:>9}",
            "bench", "tool", "MHz", "ALMs", "Reg", "BRAM", "runtime"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>6.0} {:>7} {:>7} {:>5} {:>7.2}ms",
                r.name, r.tool, r.mhz, r.alms, r.regs, r.brams, r.runtime_ms
            );
        }
    }
}

impl Rows for exp::GrainAblationRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Ablation: cilk_for grainsize on the i7 baseline");
        let _ =
            writeln!(out, "{:<12} {:>10} {:>11} {:>9}", "bench", "fine ms", "coarse ms", "speedup");
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10.3} {:>11.3} {:>8.1}x",
                r.name, r.fine_ms, r.coarse_ms, r.coarsening_speedup
            );
        }
    }
}

/// Each point runs in its own cell; the fold normalizes every row to the
/// first (1 MSHR, 1-wide, no L2) point.
impl Rows for exp::MemAblationRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Ablation: cache miss parallelism (SAXPY, 4 tiles)");
        let _ = writeln!(
            out,
            "{:>6} {:>11} {:>5} {:>10} {:>9}",
            "MSHRs", "issue width", "L2", "cycles", "speedup"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:>6} {:>11} {:>5} {:>10} {:>8.2}x",
                r.mshrs,
                r.issue_width,
                if r.l2 { "yes" } else { "no" },
                r.cycles,
                r.speedup
            );
        }
    }

    fn finish(rows: &mut [Self]) {
        let Some(base) = rows.first().map(|r| r.cycles) else { return };
        for r in rows {
            r.speedup = base as f64 / r.cycles as f64;
        }
    }
}

impl Rows for exp::ElisionAblationRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Ablation: static task elision (scale microbenchmark)");
        let _ =
            writeln!(out, "{:<9} {:>10} {:>8} {:>11}", "variant", "cycles", "ALMs", "task units");
        for r in rows {
            let _ = writeln!(
                out,
                "{:<9} {:>10} {:>8} {:>11}",
                r.variant, r.cycles, r.alms, r.task_units
            );
        }
    }
}

impl Rows for exp::LintRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Static analysis: tapas-lint over the benchmark suite");
        let _ = writeln!(out, "{:<16} {:>6} worst", "bench", "diags");
        for r in rows {
            let _ = writeln!(out, "{:<16} {:>6} {}", r.name, r.diags, r.worst);
        }
    }
}

impl Rows for exp::ProfileRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Cycle attribution: what bounds each benchmark");
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>9} {:<14} {:>8} {:>7} {:>7} {:>8} {:<18}",
            "bench",
            "tiles",
            "cycles",
            "verdict",
            "compute",
            "mem",
            "spawn",
            "q-full",
            "dominant stall"
        );
        for r in rows {
            let q_full: u64 = r.unit_queues.iter().map(|u| u.full_cycles).sum();
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>9} {:<14} {:>7.0}% {:>6.0}% {:>6.0}% {:>8} {:<18}",
                r.name,
                r.tiles,
                r.cycles,
                r.class,
                r.compute_frac * 100.0,
                r.memory_frac * 100.0,
                r.spawn_frac * 100.0,
                q_full,
                r.dominant
            );
        }
    }
}

impl Rows for exp::StressRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Bounded resources: undersized-queue stress matrix (output == golden)");
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10} {:>8} {:>8} {:>8}",
            "bench", "ntasks", "cycles", "spills", "refills", "inline"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>10} {:>8} {:>8} {:>8}",
                r.name, r.ntasks, r.cycles, r.spills, r.refills, r.inline_spawns
            );
        }
    }
}

impl Rows for exp::TuneRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Tuning: opt-in work stealing + banked L1 (output == golden)");
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>5} {:>10} {:>7} {:>9} {:>9} {:>8}",
            "bench", "variant", "tiles", "cycles", "steals", "stealfail", "bankconf", "speedup"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:<14} {:>5} {:>10} {:>7} {:>9} {:>9} {:>7.2}x",
                r.name,
                r.variant,
                r.tiles,
                r.cycles,
                r.steals,
                r.steal_fail,
                r.bank_conflicts,
                r.speedup
            );
        }
    }
}

impl Rows for exp::AnalyzeRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Static analysis: predicted vs measured (bounds bracket the interpreter)");
        let _ = writeln!(
            out,
            "{:<12} {:>16} {:>9} {:>13} {:>8} {:>7} {:>7} {:>9} {:>7} {:>5} {:<14} {:<14}",
            "bench",
            "work [lo,hi]",
            "dyn",
            "span [lo,hi]",
            "dyn",
            "mem",
            "spawns",
            "min-safe",
            "seed-ok",
            "peak",
            "predicted",
            "measured"
        );
        let fmt_hi =
            |hi: Option<u64>| hi.map(|h| h.to_string()).unwrap_or_else(|| "inf".to_string());
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>16} {:>9} {:>13} {:>8} {:>7} {:>7} {:>9} {:>7} {:>5} {:<14} {:<14}{}",
                r.name,
                format!("[{},{}]", r.work_lo, fmt_hi(r.work_hi)),
                r.dyn_work,
                format!("[{},{}]", r.span_lo, fmt_hi(r.span_hi)),
                r.dyn_span,
                r.dyn_mem,
                r.dyn_spawns,
                r.min_safe_ntasks.map(|n| n.to_string()).unwrap_or_else(|| "none".to_string()),
                if r.safe_at_seed { "yes" } else { "NO" },
                r.dyn_peak_tasks,
                r.predicted,
                r.measured,
                if r.agree { "" } else { "  <- disagree" }
            );
        }
    }
}

impl Rows for exp::FaultRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Robustness: fault-injection matrix (masked or detected, never silent)");
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:<10} {:>7} {:>7} {:>4} {:>6} detail",
            "bench", "scenario", "outcome", "inject", "retries", "ecc", "fenced"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:<16} {:<10} {:>7} {:>7} {:>4} {:>6} {}",
                r.name,
                r.scenario,
                r.outcome,
                r.faults_injected,
                r.mem_retries,
                r.ecc_retries,
                r.quarantined_tiles,
                r.detail
            );
        }
    }

    fn failure(rows: &[Self]) -> Option<String> {
        let wrong = rows.iter().filter(|r| r.silently_wrong()).count();
        (wrong > 0).then(|| format!("{wrong} run(s) completed with silently corrupted output"))
    }
}

impl Rows for exp::DifferentialRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Differential: seeded per-workload config sweeps vs the golden model");
        let _ = writeln!(out, "{:<12} {:>18} {:>8} {:>7}", "bench", "seed", "samples", "checks");
        for r in rows {
            let _ =
                writeln!(out, "{:<12} {:>18} {:>8} {:>7}", r.workload, r.seed, r.samples, r.checks);
        }
    }
}

impl Rows for exp::ChaosRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Chaos: kill-and-resume snapshot identity (resumed == uninterrupted)");
        let _ = writeln!(out, "{:<12} {:>18} {:>7} {:>9}", "bench", "seed", "trials", "verified");
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>18} {:>7} {:>9}",
                r.workload, r.seed, r.trials, r.verified
            );
        }
    }
}

impl Rows for exp::FuzzRow {
    fn render(rows: &[Self], out: &mut String) {
        hdr(out, "Fuzzsim: generated task-graph traffic vs the golden model");
        let _ = writeln!(out, "{:<20} {:<10} {:>8} {:>7}", "seed", "shape", "configs", "checks");
        for r in rows {
            let _ =
                writeln!(out, "{:<20} {:<10} {:>8} {:>7}", r.seed, r.shape, r.configs, r.checks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 23, "13 paper sections, lint, 8 harness experiments and all");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in &names {
            assert!(find(n).is_some());
        }
        assert!(find("fig13").is_some(), "paper tables are registry experiments");
        for alias in ["spawn_latency", "grain", "mem", "elision", "bench"] {
            assert!(find(alias).is_none(), "`{alias}` is not a subcommand");
        }
        for section in ALL {
            assert!(find(section).is_some(), "`all` runs `{section}`");
        }
    }

    #[test]
    fn every_experiment_advertises_the_current_schema() {
        for e in registry() {
            let doc = json::parse(&e.report(&[]).json).expect("an empty fold dumps valid JSON");
            assert_eq!(
                doc.get("schema_version").and_then(JsonValue::as_f64),
                Some(exp::JSON_SCHEMA_VERSION as f64),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn every_experiment_has_unique_nonempty_cells() {
        for e in registry() {
            let cells = (e.cells)(&RunOpts::default());
            assert!(!cells.is_empty(), "{}", e.name);
            let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{}: duplicate cell id", e.name);
            for id in ids {
                // `all`'s cells keep their sections' ids, so one journal
                // serves both and each section folds its own slice.
                let owned = owner(id) == e.name || (e.name == "all" && ALL.contains(&owner(id)));
                assert!(owned, "{}: cell `{id}` not namespaced", e.name);
            }
        }
    }

    #[test]
    fn fuzzsim_cells_scale_with_the_seeds_override() {
        let e = find("fuzzsim").expect("fuzzsim is registered");
        assert_eq!((e.cells)(&RunOpts::default()).len(), FUZZ_DEFAULT_SEEDS);
        let three = (e.cells)(&RunOpts { seeds: Some(3) });
        assert_eq!(three.len(), 3);
        let eight = (e.cells)(&RunOpts::default());
        // The first cells of a longer campaign are the shorter campaign:
        // raising --seeds only appends programs, it never reshuffles them.
        for (a, b) in three.iter().zip(&eight) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn cell_payload_round_trips_through_the_journal_codec() {
        let rows = vec![exp::StressRow {
            name: "fib".to_string(),
            ntasks: 2,
            cycles: 1234,
            spills: 5,
            refills: 5,
            inline_spawns: 17,
        }];
        let value = payload(rows.clone()).expect("rows encode to JSON");
        let c = codec();
        let encoded = (c.encode)(&value);
        assert_eq!(encoded, rows.to_json(), "the journal stores the rows' own encoding");
        let decoded = (c.decode)(&json::parse(&encoded).expect("valid JSON")).expect("decodes");
        assert_eq!(encoded, (c.encode)(&decoded), "decode ∘ encode must be the identity");

        // A payload that does not decode fails the fold instead of
        // dropping its rows silently.
        let record = |id: &str, payload| exec::CellRecord {
            id: id.to_string(),
            status: exec::CellStatus::Ok,
            attempts: 1,
            detail: String::new(),
            payload: Some(payload),
            resumed: true,
        };
        let folded = fold::<exp::StressRow>(&[
            record("stress/fib/2", decoded),
            record("stress/fib/4", JsonValue::Str("nope".to_string())),
        ]);
        let failure = folded.failure.expect("an undecodable payload fails the experiment");
        assert!(failure.contains("stress/fib/4: payload does not decode"), "got: {failure}");
        assert!(folded.text.contains("1234"), "the decodable row still renders");
    }
}
