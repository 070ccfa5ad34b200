//! Committed reference outputs and the tolerance check against them.
//!
//! `golden.json` is a flat JSON object, one `"key": [numbers]` entry per
//! line, written by `--write-golden` over every input a workload can
//! draw. The reader accepts exactly that layout, so no JSON library is
//! needed; floats are written in shortest round-trip form and read back
//! bit-exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag on the first entry of the file.
pub const SCHEMA: &str = "mcml-perfbench-golden/1";

/// Where the golden file lives: beside this package's manifest.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

/// `|got − golden| ≤ abs + rel·|golden|` passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute floor, in the output's unit.
    pub abs: f64,
    /// Relative part, as a share of the golden value.
    pub rel: f64,
}

/// Scalar transients, library and gate-level outputs (`golden_fig6.rs`).
pub const EXACT_PATH: Tolerance = Tolerance {
    abs: 1e-9,
    rel: 1e-4,
};
/// Ensemble lanes (`golden_fig6.rs`, per-lane band).
pub const ENSEMBLE: Tolerance = Tolerance {
    abs: 2.5e-6,
    rel: 1e-4,
};
/// Partitioned traces (`partition_parity.rs`).
pub const PARTITION: Tolerance = Tolerance {
    abs: 1e-6,
    rel: 1e-4,
};

/// Worst `|got − want| / (abs + rel·|want|)` over the pairs: 0 is
/// bit-exact, above 1 fails. A length mismatch or a non-finite value is
/// `INFINITY`.
#[must_use]
pub fn err_ratio(got: &[f64], want: &[f64], tol: Tolerance) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter().zip(want).fold(0.0, |worst, (&g, &w)| {
        let r = if g.is_finite() && w.is_finite() {
            (g - w).abs() / (tol.abs + tol.rel * w.abs())
        } else {
            f64::INFINITY
        };
        worst.max(r)
    })
}

/// Golden values by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden(BTreeMap<String, Vec<f64>>);

impl Golden {
    /// Read and parse [`PATH`].
    ///
    /// # Errors
    ///
    /// The file is missing or not in the layout [`Golden::to_json`] writes.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{PATH}: {e}"))
    }

    /// Parse the layout [`Golden::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Names the first line that does not parse, or a missing schema tag.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut schema = false;
        for (no, line) in text.lines().enumerate() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            let bad = || format!("line {}: cannot parse `{line}`", no + 1);
            let (key, value) = line.split_once(": ").ok_or_else(bad)?;
            let key = key.strip_prefix('"').and_then(|k| k.strip_suffix('"'));
            let key = key.ok_or_else(bad)?;
            if key == "schema" {
                if value != format!("\"{SCHEMA}\"") {
                    return Err(format!("schema {value}, expected {SCHEMA}"));
                }
                schema = true;
                continue;
            }
            let body = value.strip_prefix('[').and_then(|v| v.strip_suffix(']'));
            let body = body.ok_or_else(bad)?;
            let values = body
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::parse::<f64>)
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|_| bad())?;
            if map.insert(key.to_owned(), values).is_some() {
                return Err(format!("line {}: duplicate key {key}", no + 1));
            }
        }
        if !schema {
            return Err(format!("no \"schema\": \"{SCHEMA}\" entry"));
        }
        Ok(Self(map))
    }

    /// Serialise: schema first, then keys in sorted order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\"");
        for (key, values) in &self.0 {
            let nums: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
            let _ = write!(out, ",\n  \"{key}\": [{}]", nums.join(", "));
        }
        out.push_str("\n}\n");
        out
    }

    /// Record (or replace) one entry.
    pub fn insert(&mut self, key: String, values: Vec<f64>) {
        self.0.insert(key, values);
    }

    /// Drop every key starting with `prefix` (a workload being rewritten).
    pub fn remove_prefix(&mut self, prefix: &str) {
        self.0.retain(|k, _| !k.starts_with(prefix));
    }

    /// The golden values of one key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&[f64]> {
        self.0.get(key).map(Vec::as_slice)
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no key is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact() {
        let mut g = Golden::default();
        g.insert("a/b".into(), vec![1.997807770513804e-3, -0.0, 1e-300, 42.0]);
        g.insert("empty".into(), vec![]);
        let back = Golden::parse(&g.to_json()).unwrap();
        assert_eq!(back, g);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.get("a/b").unwrap()), bits(g.get("a/b").unwrap()));
    }

    #[test]
    fn parse_rejects_garbage_and_missing_schema() {
        assert!(Golden::parse("{\n  \"x\": [1]\n}\n").is_err());
        let text = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"x\": [1, oops]\n}}\n");
        assert!(Golden::parse(&text).is_err());
    }

    #[test]
    fn err_ratio_scales_with_tolerance() {
        let tol = Tolerance { abs: 1.0, rel: 0.0 };
        assert_eq!(err_ratio(&[1.0, 2.0], &[1.0, 2.0], tol), 0.0);
        assert_eq!(err_ratio(&[1.5, 2.0], &[1.0, 2.0], tol), 0.5);
        assert!(err_ratio(&[3.0], &[1.0], tol) > 1.0);
        assert_eq!(err_ratio(&[1.0], &[1.0, 2.0], tol), f64::INFINITY);
        assert_eq!(err_ratio(&[f64::NAN], &[1.0], tol), f64::INFINITY);
    }
}
