//! Timing, table-printing and self-checking helpers for the bench
//! binaries.

use std::time::{Duration, Instant};

/// Wall-time one call.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Wall-time `n` repetitions; returns per-iteration duration.
pub fn time_per<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(n > 0);
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    start.elapsed() / n as u32
}

/// Run `f` with the calling thread pinned to the CPU it is on, and put
/// its CPU set back afterwards; also returns that CPU (`None` where the
/// thread could not be pinned, and `f` ran unpinned). A single-thread
/// timing loop pinned this way is not migrated between cores mid-pass.
pub fn pinned<R>(f: impl FnOnce() -> R) -> (R, Option<usize>) {
    match affinity::pin_here() {
        Some((cpu, saved)) => {
            let r = f();
            affinity::restore(&saved);
            (r, Some(cpu))
        }
        None => (f(), None),
    }
}

/// `sched_setaffinity(2)` on the calling thread, declared directly: the
/// standard library already links libc.
#[cfg(target_os = "linux")]
mod affinity {
    use std::os::raw::c_int;

    /// A `cpu_set_t`: 1 024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// Pin the calling thread (pid 0) to its current CPU; returns that
    /// CPU and the set it was allowed before.
    pub fn pin_here() -> Option<(usize, CpuSet)> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable `cpu_set_t`-sized buffer.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut saved) } != 0 {
            return None;
        }
        // SAFETY: no arguments; reads the calling thread's CPU.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok().filter(|&c| c < 1_024)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable `cpu_set_t`-sized buffer.
        (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } == 0).then_some((cpu, saved))
    }

    pub fn restore(saved: &CpuSet) {
        // SAFETY: `saved` is the set `sched_getaffinity` filled in.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), saved) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type CpuSet = ();
    pub fn pin_here() -> Option<(usize, CpuSet)> {
        None
    }
    pub fn restore(_: &CpuSet) {}
}

/// Render a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// A fixed-width experiment table writer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::from("| ");
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep);
        for row in &self.rows {
            line(row);
        }
    }
}

/// How a gate's measured value must relate to its budget.
#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    /// value <= budget
    AtMost,
    /// value < budget
    Below,
    /// value >= budget
    AtLeast,
    /// value == budget
    Equal,
}

impl Cmp {
    fn holds(self, value: f64, budget: f64) -> bool {
        match self {
            Cmp::AtMost => value <= budget,
            Cmp::Below => value < budget,
            Cmp::AtLeast => value >= budget,
            Cmp::Equal => value == budget,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::AtMost => "<=",
            Cmp::Below => "<",
            Cmp::AtLeast => ">=",
            Cmp::Equal => "==",
        }
    }
}

/// The claims a bench binary checks about its own run. A gate is a
/// name, a measured value, a budget and a comparison; every gate is
/// printed as it is checked, and [`Gates::finish`] ends the process
/// with a nonzero status if any was breached. A claim the run measures
/// but does not reproduce is recorded with its reason and breaches
/// nothing.
#[derive(Debug, Default)]
pub struct Gates {
    /// One JSON object per gate checked.
    checked: Vec<String>,
    /// One JSON object per claim not reproduced.
    unreproduced: Vec<String>,
    breached: usize,
}

impl Gates {
    /// Check `value` against `budget`; print and record the outcome.
    pub fn check(&mut self, name: &str, value: f64, cmp: Cmp, budget: f64) {
        let (pass, op) = (cmp.holds(value, budget), cmp.symbol());
        println!("gate {name}: {value} {op} {budget} ... {}", if pass { "ok" } else { "FAIL" });
        self.breached += usize::from(!pass);
        self.checked.push(format!(
            "{{ \"name\": {name:?}, \"value\": {value}, \"cmp\": \"{op}\", \"budget\": {budget}, \
             \"pass\": {pass} }}"
        ));
    }

    /// Record a claim this run does not reproduce, with why.
    pub fn not_reproduced(&mut self, name: &str, value: f64, reason: &str) {
        println!("not reproduced {name}: {value} ({reason})");
        self.unreproduced
            .push(format!("{{ \"name\": {name:?}, \"value\": {value}, \"reason\": {reason:?} }}"));
    }

    /// The `"gates"` and `"not_reproduced"` members of a JSON record.
    pub fn json(&self) -> String {
        let list = |items: &[String]| {
            if items.is_empty() {
                "[]".to_owned()
            } else {
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
        };
        let (gates, unreproduced) = (list(&self.checked), list(&self.unreproduced));
        format!("\"gates\": {gates},\n  \"not_reproduced\": {unreproduced}")
    }

    /// Print the tally; exit with status 1 if any gate was breached.
    pub fn finish(&self) {
        println!("{} gates checked, {} breached", self.checked.len(), self.breached);
        if self.breached > 0 {
            std::process::exit(1);
        }
    }
}
