//! Small numeric helpers: order statistics, result digests and a
//! seeded generator.

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value; 0 when empty.
pub fn minimum(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank quantile, `q` in `[0, 1]`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Quartile spread as a share of the median, the way the benchmark's
/// steadiness is judged.
pub fn iqr_share(v: &[f64]) -> f64 {
    let med = median(v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    (quantile(v, 0.75) - quantile(v, 0.25)) / med
}

/// In-run spread of a sample for the record: order statistics, the
/// quartile spread as a share of the median, and every sample.
pub fn summary(v: &[f64], digits: usize) -> String {
    let all: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
    format!(
        "min {:.digits$} median {:.digits$} max {:.digits$} iqr_share {:.4} samples [{}]",
        minimum(v),
        median(v),
        v.iter().copied().fold(0.0, f64::max),
        iqr_share(v),
        all.join(", ")
    )
}

/// FNV-1a over a byte stream: the result digest two repeats must share.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, b: &[u8]) -> Digest {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own seeded choices (which rows a writer
/// copies or deletes, which label walks a reader asks for).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Replaces every duration token (`12.5ms`, `3s`, `40µs`, `7ns`) with
/// `[t]` and collapses runs of spaces, so report text that embeds wall
/// clock times can be compared between repeats.
pub fn scrub_durations(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let starts_number =
            chars[i].is_ascii_digit() && (i == 0 || !chars[i - 1].is_ascii_alphanumeric());
        if starts_number {
            let mut j = i;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                j += 1;
            }
            let rest: String = chars[j..chars.len().min(j + 2)].iter().collect();
            let unit = ["ns", "µs", "ms"]
                .iter()
                .find(|u| rest.starts_with(**u))
                .map(|u| u.chars().count())
                .or_else(|| rest.starts_with('s').then_some(1));
            if let Some(len) = unit {
                let end = j + len;
                if end >= chars.len() || !chars[end].is_alphanumeric() {
                    out.push_str("[t]");
                    i = end;
                    continue;
                }
            }
            out.extend(&chars[i..j]);
            i = j;
            continue;
        }
        if chars[i] == ' ' && out.ends_with(' ') {
            i += 1;
            continue;
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn scrub_hides_durations_only() {
        let a = scrub_durations("E2 took 12.5ms  over 3 graphs in 1.2s, 40µs, 5 edges");
        let b = scrub_durations("E2 took 980ms over 3 graphs in 2s, 7µs, 5 edges");
        assert_eq!(a, b);
        assert!(a.contains("3 graphs") && a.contains("5 edges"), "{a}");
        assert_ne!(scrub_durations("5 edges"), scrub_durations("6 edges"));
    }
}
