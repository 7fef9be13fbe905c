//! In-memory host-time spans around every layer call the benchmark makes.
//!
//! A [`Tracer`] that is off records nothing and only times the calls the
//! benchmark needs timed anyway, so the untraced run pays no tracing
//! cost. A tracer that is on keeps every span (name, start, end, parent,
//! job id, thread) until the run ends; [`self_times`] then splits each
//! span's duration into the part its children cover and the rest, and
//! [`chrome_trace`] writes the spans in the trace-event JSON shape
//! `tapas_sim::profile::chrome_trace` uses, so host and simulated traces
//! open in one viewer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tapas_exec::json::ToJson;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, `layer.stage` (`ir.verify`, `sim.run`, …) or a root
    /// (`job`, `setup`, `extra`).
    pub name: &'static str,
    /// Every span of one job shares this id.
    pub job: u64,
    /// Host thread the span ran on (0 = main, `w + 1` = sweep worker `w`).
    pub tid: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread `tid`; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer { on, epoch, job: 0, tid, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The shared time origin, so recorders on other threads line up.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Tag the spans that follow with job id `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.spans.push(Span { name, job: self.job, tid: self.tid, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Open a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = Instant::now();
            let i = self.push(name, now, now);
            self.open.push(i);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let end = self.ns(Instant::now());
            let i = self.open.pop().expect("exit without a matching enter");
            self.spans[i].end_ns = end;
        }
    }

    /// Close every span opened above `depth` open spans — the recovery
    /// path after a job panicked mid-span.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Currently open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Run `f`, returning its result and its host time in nanoseconds, and
    /// record it as a leaf span named `name` when the tracer is on.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.on {
            self.push(name, start, end);
        }
        (r, end.duration_since(start).as_nanos() as u64)
    }

    /// Hand over the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Append spans recorded by another tracer (another thread), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread, nested calls).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per span name: `(calls, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += o;
    }
    out
}

/// Per layer (the span name up to its first `.`): self ns of the spans
/// in `range`.
pub fn self_by_layer(spans: &[Span], range: std::ops::Range<usize>) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for i in range {
        *out.entry(layer_of(spans[i].name)).or_default() += own[i];
    }
    out
}

/// The layer a span name belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Render spans as Chrome trace-event JSON: thread-name metadata events,
/// then one `"X"` duration event per span (microsecond timestamps) with
/// the job id and parent index in `args`.
pub fn chrome_trace(spans: &[Span], thread_names: &[String]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (tid, name) in thread_names.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            name.to_json()
        );
    }
    for s in spans {
        sep(&mut out);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":{},\"cat\":{},\"args\":{{\"job\":{},\"parent\":{parent}}}}}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.name.to_json(),
            layer_of(s.name).to_json(),
            s.job,
        );
    }
    out.push_str(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"tapas-perfbench\",\
         \"clock\":\"host time, 1 unit = 1us\"}}",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, job: 1, tid: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // job [0,100) ⊃ sim.run [10,60) ⊃ check.x [20,30); job ⊃ ir.verify [70,90)
        let spans = vec![
            span("job", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("check.x", 20, 30, Some(1)),
            span("ir.verify", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = self_by_layer(&spans, 0..spans.len());
        assert_eq!(self_by_layer(&spans, 1..2)["sim"], 40);
        assert_eq!(layers["job"], 30);
        assert_eq!(layers["sim"], 40);
        assert_eq!(layers["ir"], 20);
        // Self times partition the root's wall exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
        let names = by_name(&spans);
        assert_eq!(names["sim.run"], (1, 50, 40));
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 0);
        t.set_job(7);
        t.enter("job");
        let (v, _) = t.timed("ir.verify", || 41 + 1);
        assert_eq!(v, 42);
        t.enter("sim.run");
        t.unwind_to(0);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut main = Tracer::new(true, epoch, 0);
        main.timed("setup", || ());
        main.absorb(spans);
        assert_eq!(main.spans()[2].parent, Some(1));

        let json = chrome_trace(main.spans(), &["main".to_string()]);
        assert!(json.starts_with("{\"traceEvents\":[{\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"ir.verify\",\"cat\":\"ir\""));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn off_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.enter("job");
        let (_, ns) = t.timed("sim.run", || std::hint::black_box((0..1000u64).sum::<u64>()));
        t.exit();
        assert!(t.spans().is_empty());
        assert!(ns < 1_000_000_000);
    }
}
