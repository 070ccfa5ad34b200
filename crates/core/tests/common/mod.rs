//! What the golden tests share: the benchmark's committed goldens and
//! the tolerance a pinned value is held to.

/// A pinned value passes when `|got − want| ≤ ABS_TOL + REL_TOL·|want|`:
/// 0.01 %, comfortably above the Newton tolerances that bound legitimate
/// solver noise, with an absolute floor at the residual tolerance. The
/// benchmark's exact-path tolerance is the same.
pub const REL_TOL: f64 = 1e-4;
/// See [`REL_TOL`].
pub const ABS_TOL: f64 = 1e-9;

/// The values `perfbench/golden.json` holds for one key, read-only.
pub fn benchmark_golden(entry: &str) -> Vec<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/golden.json");
    let text = std::fs::read_to_string(path).expect("read perfbench/golden.json");
    let tag = format!("\"{entry}\": [");
    let start = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no golden `{entry}`"))
        + tag.len();
    let end = start + text[start..].find(']').expect("closing bracket");
    text[start..end]
        .split(',')
        .map(|v| v.trim().parse().expect("golden value"))
        .collect()
}
