//! Shared plumbing: command-line arguments, the seeded generator, the
//! per-run scratch directory, sample statistics with the percentile
//! guard, peak memory, and the result line.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The timed phase runs for the requested seconds and at least this many
/// ops, so the 90th percentile always has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Boxed error with a message; every failure of the harness itself
/// ends the run without a result line.
pub type BenchError = Box<dyn std::error::Error>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, BenchError> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}").into()),
                    })
                }
                other => return Err(format!("unknown flag {other}").into()),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}").into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Thread caps the run used; printed with the results.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    pub nproc: usize,
    pub rayon: usize,
    pub serve_workers: usize,
    pub sweep_shards: usize,
}

impl Threads {
    /// The solver kernels run on one rayon thread whatever the host
    /// offers: on a two-vCPU host, two threads made the DTM ops slower
    /// and widened their run-to-run spread two- to fourfold, because the
    /// parallel regions are short and wait on a second vCPU the
    /// hypervisor may not be running. The kernels' parallel branches
    /// (taken above `PAR_MIN_ROWS` rows with more than one thread) are
    /// therefore not measured. Serve workers are capped at `nproc` and
    /// the sweep runs one shard. The rayon pool reads `RAYON_NUM_THREADS`
    /// once, on first use, so this runs before any solver call and
    /// overrides whatever the caller's environment holds.
    pub fn configure() -> Threads {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let rayon = 1;
        std::env::set_var("RAYON_NUM_THREADS", rayon.to_string());
        Threads {
            nproc,
            rayon,
            serve_workers: nproc.min(2),
            sweep_shards: 1,
        }
    }
}

/// splitmix64: the seeded source of every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// Draws from a fixed multiset of op configs in seeded order,
/// reshuffling after each pass: every seed gets the same mix proportions
/// (so percentiles never move between classes of ops from one seed to
/// the next), only the order differs.
pub struct Deck<T: Copy> {
    items: Vec<T>,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>, rng: Rng) -> Deck<T> {
        Deck {
            items,
            order: Vec::new(),
            next: 0,
            rng,
        }
    }

    pub fn draw(&mut self) -> T {
        if self.next == self.order.len() {
            self.order = self.rng.permutation(self.items.len());
            self.next = 0;
        }
        let item = self.items[self.order[self.next]];
        self.next += 1;
        item
    }
}

/// The run's private on-disk state (response cache, journals,
/// checkpoints, spool), made before set-up and removed when the timed
/// phase ends. Lives under `.bench_runs/` of the working directory.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(workload: &str) -> Result<RunDir, BenchError> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path =
            PathBuf::from(".bench_runs").join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir {
            path: std::fs::canonicalize(&path)?,
        })
    }

    /// A fresh subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, BenchError> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// Removes the directory now; also done on drop.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave `.bench_runs` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_runs");
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated quantile of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` percentile of `xs`, refusing when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn guarded_percentile(name: &str, xs: &[f64], q: f64) -> Result<f64, BenchError> {
    let beyond = ((xs.len() as f64) * (1.0 - q) + 1e-9).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{name}: {} samples leave {beyond} beyond the {:.0}th percentile; \
             at least {MIN_TAIL_SAMPLES} are required",
            xs.len(),
            q * 100.0
        )
        .into());
    }
    Ok(quantile(xs, q))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (printed beside every timing).
    pub samples: Option<usize>,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an output check failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn push_n(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(n),
        });
    }
}

/// Timed-phase latencies plus the work they covered, turned into the
/// end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub units: f64,
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn into_metrics(self, out: &mut Outcome) -> Result<(), BenchError> {
        let p50 = guarded_percentile("latency_ms_p50", &self.op_ms, 0.5)?;
        let p90 = guarded_percentile("latency_ms_p90", &self.op_ms, 0.9)?;
        let n = self.op_ms.len();
        out.push_n("setup_s", median(&self.setup_s), "s", self.setup_s.len());
        out.push_n("throughput_per_s", self.units / self.timed_s, "1/s", n);
        out.push_n("latency_ms_p50", p50, "ms", n);
        out.push_n("latency_ms_p90", p90, "ms", n);
        out.push("peak_rss_mb", peak_rss_mb()?, "MB");
        let attempted = self.attempted.max(1);
        out.push_n(
            "ok_ratio",
            1.0 - self.failed as f64 / attempted as f64,
            "1",
            attempted as usize,
        );
        out.attempted = attempted;
        out.failed = self.failed;
        Ok(())
    }
}

/// Renders the final result line.
pub fn result_json(out: &Outcome) -> Result<String, BenchError> {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed
    )?;
    for (i, m) in out.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value).into());
        }
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )?;
    }
    s.push_str("}}");
    Ok(s)
}
