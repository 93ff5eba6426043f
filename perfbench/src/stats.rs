//! Small numeric and host helpers: quantiles, medians, peak memory, the
//! host stamp, and a minimal JSON writer for the result line.

use std::fmt::Write as _;
use std::path::Path;

/// The `q` quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. Sorts a copy; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of each consecutive window of `window` values (a
/// short tail joins the last window), then the `across` quantile of the
/// per-window figures.
pub fn windowed_quantile(values: &[f64], q: f64, window: usize, across: f64) -> f64 {
    let windows = (values.len() / window.max(1)).max(1);
    let size = values.len() / windows;
    if size == 0 {
        return quantile(values, q);
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * size
            };
            quantile(&values[w * size..end], q)
        })
        .collect();
    quantile(&per_window, across)
}

/// A seeded uniform sample of at most `capacity` items from a stream of
/// unknown length (reservoir sampling, algorithm R). Memory stays fixed
/// however much work a run completes, so a faster program does not
/// report a larger peak RSS.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    seed: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `capacity` items.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
            seen: 0,
            seed,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers one item of the stream.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let j = fluxcomp_exec::derive_seed(self.seed, self.seen) % self.seen;
        if let Some(slot) = self.items.get_mut(j as usize) {
            *slot = item;
        }
    }

    /// The sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The sample, consumed.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs the process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// FNV-1a over every file under `dirs` (sorted by path), so a result can
/// name the exact sources it measured even where no git metadata exists.
pub fn source_hash(root: &Path, dirs: &[&str]) -> String {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    collect(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        if let (Ok(rel), Ok(bytes)) = (file.strip_prefix(root), std::fs::read(file)) {
            feed(rel.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    format!("{hash:016x}")
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON number; non-finite values (never valid JSON) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_quantile_picks_across_windows() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        v[150] = 1e9; // one stall in the middle window
        assert_eq!(windowed_quantile(&v, 1.0, 100, 0.5), 99.0);
        assert_eq!(windowed_quantile(&v, 1.0, 100, 1.0), 1e9);
        // A short tail joins the last window.
        assert_eq!(windowed_quantile(&v[..250], 1.0, 100, 0.0), 99.0);
        assert_eq!(windowed_quantile(&v[..50], 0.0, 100, 0.5), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_seeded_sample() {
        let fill = |seed| {
            let mut r = Reservoir::new(10, seed);
            for i in 0..1000u32 {
                r.push(i);
            }
            r
        };
        let a = fill(1);
        assert_eq!(a.items().len(), 10);
        assert_eq!(a.items(), fill(1).items());
        assert_ne!(a.items(), fill(2).items());
        assert!(
            a.items().iter().any(|&i| i >= 10),
            "later items get sampled"
        );
    }

    #[test]
    fn json_helpers_escape_and_drop_non_finite() {
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
