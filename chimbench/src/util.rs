//! Small shared pieces: seed derivation, statistics, digests, host facts,
//! a minimal JSON writer and the benchmark's own span recorder.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64 finalizer: a well-mixed 64-bit value from any input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// A sub-seed of the workload seed, one per named use.
pub fn derive(seed: u64, tag: &str) -> u64 {
    mix(seed ^ fnv1a(tag.bytes()))
}

/// Digest of a float vector's exact bit patterns, as 16 hex digits.
pub fn digest_f32(v: &[f32]) -> String {
    format!(
        "{:016x}",
        fnv1a(v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
    )
}

/// Median of a non-empty sample (mean of the two middle values for even
/// counts); `NaN` for an empty one.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A JSON value, written by hand so the benchmark needs no serializer.
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(pairs: Vec<(&str, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            // Rust's float Display is the shortest exact round-trip form.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(".0");
                }
            }
            J::Num(_) => out.push_str("null"),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// One span the benchmark records around a timed call into the program.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The benchmark's own spans. They are recorded only in traced runs, on
/// the benchmark's main thread, kept in memory and written out at exit.
/// Every span of a run shares the run id.
pub struct Spans {
    run_id: String,
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(run_id: String, enabled: bool) -> Self {
        Spans {
            run_id,
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open one.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in ms of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: one thread records them).
    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name: count, total ms and self ms, in first-seen order.
    fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let own = self.self_ns();
        let spans = self.spans.borrow();
        let mut out: Vec<(String, usize, f64, f64)> = Vec::new();
        for (s, &o) in spans.iter().zip(&own) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += o as f64 / 1e6;
                }
                None => out.push((s.name.clone(), 1, total, o as f64 / 1e6)),
            }
        }
        out
    }

    pub fn to_json(&self) -> J {
        let spans = self.spans.borrow();
        let own = self.self_ns();
        let list = spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(i, (s, &o))| {
                J::obj(vec![
                    ("id", J::Int(i as i64)),
                    ("name", J::str(s.name.clone())),
                    ("start_ns", J::Int(s.start_ns as i64)),
                    ("end_ns", J::Int(s.end_ns as i64)),
                    ("parent", s.parent.map_or(J::Int(-1), |p| J::Int(p as i64))),
                    ("self_ns", J::Int(o as i64)),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, count, total, own)| {
                J::obj(vec![
                    ("name", J::str(name)),
                    ("count", J::Int(count as i64)),
                    ("total_ms", J::Num(total)),
                    ("self_ms", J::Num(own)),
                ])
            })
            .collect();
        J::obj(vec![
            ("run_id", J::str(self.run_id.clone())),
            ("spans", J::Arr(list)),
            ("self_time_by_name", J::Arr(summary)),
        ])
    }
}

/// Host speed probe: median ms of a fixed single-thread integer loop.
/// Recorded at the start and end of every run so a reader can tell host
/// drift from a change in the program; no metric is scaled by it.
pub fn host_probe_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let t = Instant::now();
            let mut x = i;
            for _ in 0..2_000_000 {
                x = std::hint::black_box(mix(x));
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Facts about the host and build that every result must carry.
pub fn host_json() -> J {
    use chimera_tensor::kernels;
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    J::obj(vec![
        (
            "nproc",
            J::Int(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as i64,
            ),
        ),
        ("hw_parallelism", J::Int(kernels::hw_parallelism() as i64)),
        ("simd", J::Bool(kernels::simd_available())),
        ("kernel_threads_per_worker", J::Int(1)),
        (
            "kernel_threads_sequential",
            J::Int(kernels::hw_parallelism() as i64),
        ),
        (
            "build_profile",
            J::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", J::str(rev)),
        ("source_digest", J::str(source_digest())),
    ])
}

/// Digest of the program's sources, so results from a checkout without git
/// history still name the code they measured.
fn source_digest() -> String {
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        h = mix(h ^ fnv1a(f.to_string_lossy().bytes()) ^ fnv1a(bytes));
    }
    format!("{h:016x}")
}
