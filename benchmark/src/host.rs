//! Host-speed reference. The benchmark runs on shared virtual machines
//! whose speed drifts by tens of percent for tens of seconds at a time,
//! often longer than a run. A fixed reference kernel, timed between
//! passes, measures the host's speed at that moment. Every end-to-end
//! host time is divided by the kernel's slowdown against its nominal
//! time, so the figures follow the program, not the host.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Nominal time of one reference run on one and on two threads: the
/// kernel's median time on the 2-vCPU Xeon virtual machine the benchmark
/// was built on, in a quiet period. A reported time is what the measured
/// work would take there when the kernel runs at that speed.
pub const NOMINAL_S: [f64; 2] = [0.032, 0.037];
/// Nominal time of one round trip of the message phase, measured the
/// same way.
pub const NOMINAL_ROUND_TRIP_S: f64 = 15e-6;

/// Instructions the kernel interprets per run.
const STEPS: u32 = 1_500_000;
/// Map entries the kernel builds, and lookups it makes, per run.
const ENTRIES: usize = 20_000;
const LOOKUPS: usize = 50_000;
/// Working set of one kernel thread: 8 MiB of random words, past the
/// private caches, as a sweep cell's simulated heap and cache model are.
const WORDS: usize = 1 << 20;
/// A reference run is taken before a serve round when the last one is
/// older.
const INTERVAL: Duration = Duration::from_millis(500);
/// Reference runs nearest a pass whose median gives its slowdown, so one
/// disturbed reference run does not skew a pass.
const NEAREST: usize = 5;

/// Bytes of reference bytecode: two per instruction.
const CODE: usize = 1 << 12;

/// Interpret `steps` instructions of `code` over eight registers and
/// `mem`. Sixteen operations of different kinds (ALU, multiply, divide,
/// bit counts, loads, stores, branches, jumps) are dispatched in a
/// pseudo-random order through one `match`, like a bytecode
/// interpreter: the dispatch branch is hard to predict and the loads
/// and stores land anywhere in the working set.
fn kernel(mem: &mut [u64], code: &[u8], steps: u32) -> u64 {
    let mask = mem.len() - 1;
    let cmask = code.len() - 1;
    let mut r = [1u64, 2, 3, 5, 7, 11, 13, 17];
    let mut pc = 0usize;
    for _ in 0..steps {
        let op = code[pc & cmask];
        let a = usize::from(code[(pc + 1) & cmask] & 7);
        let b = usize::from(op >> 4) & 7;
        pc = pc.wrapping_add(2);
        match op & 15 {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 => r[a] ^= r[b].rotate_left(13),
            3 => r[a] = mem[r[b] as usize & mask],
            4 => mem[r[a] as usize & mask] = r[b],
            5 => r[a] = r[a].wrapping_sub(r[b] >> 3),
            6 => {
                if r[a] & 1 == 0 {
                    pc = pc.wrapping_add(2 * (r[b] as usize & 3));
                }
            }
            7 => r[a] = r[a].wrapping_add(mem[(r[a] >> 7) as usize & mask]),
            8 => r[a] = r[a].swap_bytes() ^ r[b],
            9 => r[a] = r[a].wrapping_shl(r[b] as u32 & 31) | 1,
            10 => r[a] = u64::from(r[a].count_ones()) + r[b],
            11 => {
                if r[a] > r[b] {
                    r.swap(a, b);
                }
            }
            12 => r[a] /= r[b] | 1,
            13 => r[a] = u64::from(r[a].leading_zeros()) ^ r[b].wrapping_mul(0x9e37_79b9_7f4a_7c15),
            14 => pc = pc.wrapping_add(r[a] as usize & 0x3e),
            _ => r[a] = r[a].wrapping_add(0x2545_f491_4f6c_dd1d),
        }
    }
    r.iter().fold(0, |x, &v| x ^ v)
}

/// Build an ordered map of small vectors under seeded keys, then look
/// keys up in it and count the hits in a hash map: allocation, pointer
/// chasing and hashing, as a program's own data structures do.
fn collections(seed: u64) -> u64 {
    let mut rng = crate::serve::Rng::new(seed);
    let mut map = BTreeMap::new();
    for _ in 0..ENTRIES {
        let k = rng.next_u64() & 0xf_ffff;
        map.insert(k, vec![k; (k & 15) as usize + 1]);
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..LOOKUPS {
        let k = rng.next_u64() & 0xf_ffff;
        if let Some((&found, v)) = map.range(k..).next() {
            acc = acc.wrapping_add(v.len() as u64 ^ found);
            *counts.entry(found & 0xfff).or_insert(0) += 1;
        }
    }
    acc ^ counts.len() as u64
}

/// `n` pseudo-random words (SplitMix64 from a fixed seed).
fn random_words(n: usize) -> Vec<u64> {
    let mut rng = crate::serve::Rng::new(0x5eed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// One thread's reference state: bytecode, a working set with every
/// page written, and the seed of its collections phase.
struct Kernel {
    code: Vec<u8>,
    mem: Vec<u64>,
    seed: u64,
}

impl Kernel {
    fn new(seed: u64) -> Self {
        Kernel {
            code: random_words(CODE / 8)
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect(),
            mem: random_words(WORDS),
            seed,
        }
    }

    /// Time one run: the interpreter, then the collections phase.
    fn timed(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(kernel(&mut self.mem, &self.code, STEPS));
        black_box(collections(self.seed));
        t0.elapsed().as_secs_f64()
    }
}

/// Bounce one byte between two threads over a socket pair
/// `round_trips` times: the wake-ups and system calls of a request and
/// its reply. Returns the time taken.
fn ping_pong(round_trips: u32) -> f64 {
    if round_trips == 0 {
        return 0.0;
    }
    let (mut near, mut far) = UnixStream::pair().expect("a socket pair");
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        while far.read_exact(&mut byte).is_ok() && far.write_all(&byte).is_ok() {}
    });
    let mut byte = [1u8; 1];
    let t0 = Instant::now();
    for _ in 0..round_trips {
        near.write_all(&byte).expect("the echo thread is alive");
        near.read_exact(&mut byte)
            .expect("the echo thread is alive");
    }
    let d = t0.elapsed().as_secs_f64();
    drop(near);
    echo.join().expect("the echo thread does not panic");
    d
}

/// One kernel run on every thread's state at once; the mean of their
/// times.
fn run_all(kernels: &mut [Kernel]) -> f64 {
    let n = kernels.len() as f64;
    std::thread::scope(|s| {
        let runs: Vec<_> = kernels
            .iter_mut()
            .map(|k| s.spawn(move || k.timed()))
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("kernel threads do not panic"))
            .sum::<f64>()
            / n
    })
}

/// `--reference <threads> <round-trips>`: the reference process. It
/// fills its working sets, does one untimed run, prints `ready`, then
/// answers every input line with the time of one run, until its input
/// closes. A run is the kernel on every thread, then `round-trips`
/// round trips of the message phase. It runs apart from the measured
/// process so that its memory and threads never show in that process's
/// figures.
pub fn reference_process(raw: &[String]) -> ExitCode {
    let parsed = match raw {
        [n, trips] => n
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=NOMINAL_S.len()).contains(n))
            .zip(trips.parse::<u32>().ok()),
        _ => None,
    };
    let Some((threads, round_trips)) = parsed else {
        eprintln!("error: --reference takes a thread count of 1 or 2 and a round-trip count");
        return ExitCode::FAILURE;
    };
    let mut kernels: Vec<Kernel> = (1..=threads as u64).map(Kernel::new).collect();
    let mut run = || run_all(&mut kernels) + ping_pong(round_trips);
    run();
    let mut out = std::io::stdout().lock();
    let mut reply = |text: String| writeln!(out, "{text}").and_then(|()| out.flush()).is_ok();
    if !reply("ready".into()) {
        return ExitCode::FAILURE;
    }
    for line in std::io::stdin().lock().lines() {
        if line.is_err() || !reply(format!("{:?}", run())) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Reference run times and the slowdown they give.
struct Marks {
    nominal_s: f64,
    /// End instant and duration of every reference run, in order.
    runs: Vec<(Instant, f64)>,
}

impl Marks {
    /// How much slower than nominal the host ran for work that ended at
    /// `end`: the median of the [`NEAREST`] reference runs around the
    /// first one ending after it, over the nominal time.
    fn slowdown(&self, end: Instant) -> f64 {
        let n = self.runs.len();
        if n == 0 {
            return 1.0;
        }
        let after = self.runs.partition_point(|(at, _)| *at < end).min(n - 1);
        let lo = (after + 1)
            .saturating_sub(NEAREST / 2 + 1)
            .min(n.saturating_sub(NEAREST));
        let near: Vec<f64> = self.runs[lo..(lo + NEAREST).min(n)]
            .iter()
            .map(|r| r.1)
            .collect();
        crate::stats::median(&near) / self.nominal_s
    }
}

/// Reference runs taken over one measured run, by a reference process
/// that lives as long as this value.
pub struct HostSpeed {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    marks: Marks,
}

impl HostSpeed {
    /// Start a reference on `threads` (1 or 2) threads at once, as many
    /// as the workload keeps busy, with `round_trips` round trips of the
    /// message phase for a workload whose work is requests and replies,
    /// and wait until it is ready.
    pub fn start(threads: usize, round_trips: u32) -> Result<Self, String> {
        let threads = threads.clamp(1, NOMINAL_S.len());
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--reference")
            .arg(threads.to_string())
            .arg(round_trips.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the reference process: {e}"))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut host = HostSpeed {
            child,
            to,
            from,
            marks: Marks {
                nominal_s: NOMINAL_S[threads - 1] + f64::from(round_trips) * NOMINAL_ROUND_TRIP_S,
                runs: Vec::new(),
            },
        };
        match host.read_line()?.as_str() {
            "ready" => Ok(host),
            other => Err(format!("reference process said '{other}'")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.from.read_line(&mut line) {
            Ok(0) => Err("the reference process exited".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("cannot read the reference process: {e}")),
        }
    }

    /// Take a reference run now.
    pub fn mark(&mut self) -> Result<(), String> {
        let to = self.to.as_mut().expect("open until drop");
        writeln!(to).map_err(|e| format!("cannot reach the reference process: {e}"))?;
        let line = self.read_line()?;
        let d = line
            .parse::<f64>()
            .map_err(|_| format!("reference process said '{line}'"))?;
        self.marks.runs.push((Instant::now(), d));
        Ok(())
    }

    /// Take a reference run unless the last one is recent.
    pub fn mark_if_due(&mut self) -> Result<(), String> {
        let last = self.marks.runs.last();
        if last.map_or(true, |(at, _)| at.elapsed() >= INTERVAL) {
            self.mark()?;
        }
        Ok(())
    }

    /// The host's slowdown against nominal for one sample of work that
    /// ended at `end`. Divide a percentile's samples by it: like the
    /// percentile, its median passes over the odd stalled run.
    pub fn slowdown(&self, end: Instant) -> f64 {
        self.marks.slowdown(end)
    }

    /// The host's slowdown against nominal over the whole run: the mean
    /// reference time over the nominal time. Divide a sum or mean of time
    /// by it: stalls add to both alike.
    pub fn mean_slowdown(&self) -> f64 {
        let times: Vec<f64> = self.marks.runs.iter().map(|r| r.1).collect();
        if times.is_empty() {
            1.0
        } else {
            crate::stats::mean(&times) / self.marks.nominal_s
        }
    }

    /// One line for the report: the reference runs and their mean.
    pub fn note(&self) -> String {
        format!(
            "host reference: {} runs, mean slowdown {:.4} against a nominal {} s",
            self.marks.runs.len(),
            self.mean_slowdown(),
            self.marks.nominal_s
        )
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        // Closing its input ends the reference process; then reap it.
        drop(self.to.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_the_nearest_runs() {
        let n = 0.5;
        let t0 = Instant::now();
        let t = |ms| t0 + Duration::from_millis(ms);
        let mut marks = Marks {
            nominal_s: n,
            runs: vec![(t(0), n), (t(10), 2.0 * n), (t(30), 4.0 * n)],
        };
        assert_eq!(marks.slowdown(t(20)), 2.0, "all three runs, median 2n");
        marks.runs = [1.0, 1.0, 1.0, 9.0, 3.0, 3.0, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &k)| (t(10 * i as u64), k * n))
            .collect();
        assert_eq!(marks.slowdown(t(18)), 1.0, "runs 0..5, one outlier dropped");
        assert_eq!(marks.slowdown(t(49)), 3.0, "runs 2..7");
        assert_eq!(
            marks.slowdown(t(70)),
            3.0,
            "the last five when none follows"
        );
    }

    #[test]
    fn the_kernel_is_deterministic_and_touches_memory() {
        let code: Vec<u8> = random_words(CODE / 8)
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut a = random_words(1 << 10);
        let mut b = a.clone();
        assert_eq!(
            kernel(&mut a, &code, 100_000),
            kernel(&mut b, &code, 100_000)
        );
        assert_eq!(a, b);
        assert_ne!(a, random_words(1 << 10), "it stores");
        assert_eq!(collections(3), collections(3));
        assert!(ping_pong(10) > 0.0);
    }

    #[test]
    fn the_reference_process_rejects_a_bad_thread_count() {
        assert_eq!(
            reference_process(&["3".to_owned(), "0".to_owned()]),
            ExitCode::FAILURE
        );
    }
}
