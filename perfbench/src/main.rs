//! The benchmark's workload binary. `run.py` builds this binary and
//! calls it; it can also be run by hand:
//!
//! ```text
//! quicksand-perfbench run --workload cart-soak --seed 1 --seconds 25 \
//!     --trace 0 --out perfbench/out --clk-tck 100
//! quicksand-perfbench probe --workload evlog-replicated --seed 1 --out perfbench/out
//! ```
//!
//! `run` prints one JSON object: the audit, the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`), and the sample
//! count behind each. A traced run also writes its Chrome trace into
//! `--out` and prints the request breakdown table with the JSON. `probe`
//! launches the workload, prints `first-ack` when the first op is acked,
//! and exits: the runner times it from process start for `setup_s`.

#![forbid(unsafe_code)]

mod audit;
mod cart;
mod evlog;
mod layers;
mod outcome;
mod stats;
mod tap;

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use outcome::Span;

/// The workloads, by the names `BENCHMARK.json` declares.
pub const WORKLOADS: &[&str] = &["cart-soak", "evlog-replicated"];

/// Everything a run is parameterised by.
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Seeds every generated input and the engine RNG.
    pub seed: u64,
    /// Length of the measured span.
    pub seconds: f64,
    /// Warm-up before the measured span.
    pub warmup: f64,
    /// Record the per-layer breakdown.
    pub trace: bool,
    /// Where outputs and temporary files go.
    pub out: PathBuf,
    /// Clock ticks per second of `/proc/self/stat` CPU times.
    pub clk_tck: f64,
}

impl Params {
    /// The measured span on the runtime clock.
    pub fn span(&self) -> Span {
        Span { start_us: self.warmup * 1e6, end_us: (self.warmup + self.seconds) * 1e6 }
    }
}

/// Wait for the first acked op and announce it on stdout. A probe exits
/// right after: the process ending stops every thread it started.
pub fn first_ack(acked: &AtomicU64) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while acked.load(Ordering::Relaxed) == 0 {
        if Instant::now() > deadline {
            return Err(std::io::Error::other("no op was acked within 30s"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let mut stdout = std::io::stdout();
    writeln!(stdout, "first-ack")?;
    stdout.flush()
}

fn usage(msg: &str) -> ! {
    eprintln!("quicksand-perfbench: {msg}");
    eprintln!(
        "usage: quicksand-perfbench run|probe --workload {} --seed N [--seconds S] \
         [--warmup-secs S] [--trace 0|1] [--out DIR] [--clk-tck T]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> (String, Params) {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage("missing mode"));
    let mut p = Params {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        warmup: 2.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        clk_tck: 100.0,
    };
    let mut seeded = false;
    while let Some(flag) = args.next() {
        let v = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = |v: &str| {
            v.parse::<f64>().unwrap_or_else(|_| usage(&format!("{flag}: bad number {v:?}")))
        };
        match flag.as_str() {
            "--workload" => p.workload = v,
            "--seed" => {
                p.seed = v.parse().unwrap_or_else(|_| usage(&format!("--seed: bad seed {v:?}")));
                seeded = true;
            }
            "--seconds" => p.seconds = num(&v),
            "--warmup-secs" => p.warmup = num(&v),
            "--trace" => p.trace = num(&v) != 0.0,
            "--out" => p.out = PathBuf::from(v),
            "--clk-tck" => p.clk_tck = num(&v),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&p.workload.as_str()) {
        usage(&format!("unknown workload {:?}", p.workload));
    }
    if !seeded {
        usage("--seed is required");
    }
    if p.seconds <= 0.0 || p.warmup < 0.0 {
        usage("--seconds must be positive and --warmup-secs non-negative");
    }
    (mode, p)
}

fn main() {
    let (mode, p) = parse();
    if let Err(e) = std::fs::create_dir_all(&p.out) {
        eprintln!("cannot create {}: {e}", p.out.display());
        std::process::exit(1);
    }
    match mode.as_str() {
        "probe" => {
            let r = match p.workload.as_str() {
                "cart-soak" => cart::probe(&p),
                _ => evlog::probe(&p),
            };
            if let Err(e) = r {
                eprintln!("probe failed: {e}");
                std::process::exit(1);
            }
            // The cluster is still running; ending the process stops it.
            std::process::exit(0);
        }
        "run" => {
            let r = match p.workload.as_str() {
                "cart-soak" => cart::soak(&p),
                _ => evlog::replicated(&p),
            };
            let out = r.unwrap_or_else(|e| {
                eprintln!("{}: run failed: {e}", p.workload);
                std::process::exit(3);
            });
            if let Some(trace) = &out.chrome_trace {
                let path = p.out.join(format!("{}-seed{}.trace.json", p.workload, p.seed));
                if let Err(e) = std::fs::write(&path, trace) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            println!("{}", out.to_json());
        }
        other => usage(&format!("unknown mode {other}")),
    }
}
