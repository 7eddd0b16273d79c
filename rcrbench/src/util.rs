//! Small measurement helpers: percentiles, process counters read from
//! `/proc`, the host-speed probe, a seeded generator, a digest and a JSON
//! writer. None of them calls into the workspace crates, so nothing the
//! benchmark measures depends on the code under test.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `xs` (NaN-free) and returns it.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `xs` (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// Process user+sys CPU seconds, from `/proc/self/stat` (all threads,
/// including ones that have exited). Clock ticks are taken as 100 Hz,
/// the Linux `USER_HZ` on every mainstream architecture.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host-wide steal ticks from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Fixed single-threaded reference loop; returns its wall time in ms.
/// Timed before and after a workload, it lets a disagreement between runs
/// be blamed on the host rather than the program.
pub fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: the benchmark's own seeded generator for inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Builds an op-class sequence of `n` ops from per-100 shares: every
/// block of 100 holds exactly `shares[c]` ops of class `c`, shuffled, so
/// class counts are exact and each class is spread evenly over the run.
pub fn class_sequence(n: usize, shares: &[usize], rng: &mut Rng) -> Vec<usize> {
    assert_eq!(shares.iter().sum::<usize>(), 100, "shares are per 100 ops");
    let mut block: Vec<usize> = shares
        .iter()
        .enumerate()
        .flat_map(|(c, &k)| std::iter::repeat_n(c, k))
        .collect();
    let mut out = Vec::with_capacity(n + 100);
    while out.len() < n {
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out.truncate(n);
    out
}

/// Incremental FNV-1a over u64 words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Reads the checkout's git revision straight from `.git` (no `git`
/// process, nothing read outside the checkout); `unknown` when the
/// checkout is not a repository.
pub fn git_rev(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Minimal JSON value writer (the output has no strings that need more
/// than quote and backslash escaping, but control characters are handled
/// too).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Non-finite numbers have no JSON form; they only arise when a
            // measurement is missing, which `null` states honestly.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn class_sequence_has_exact_shares() {
        let seq = class_sequence(1000, &[75, 10, 10, 5], &mut Rng::new(3));
        let count = |c| seq.iter().filter(|&&x| x == c).count();
        assert_eq!(
            (count(0), count(1), count(2), count(3)),
            (750, 100, 100, 50)
        );
        assert_eq!(
            seq,
            class_sequence(1000, &[75, 10, 10, 5], &mut Rng::new(3))
        );
    }

    #[test]
    fn json_renders_escapes_and_numbers() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Str("x\"y".into())),
            ("c", Json::Arr(vec![Json::Int(2), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"a":1.5,"b":"x\"y","c":[2,true]}"#);
    }
}
