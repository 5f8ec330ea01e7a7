//! Golden outputs at the default seed: per-cell `(key, reduction, evals)`
//! for the suites and per-job record digests for `jobs_mixed`, stored under
//! `e2ebench/golden/`.

use std::path::PathBuf;

use crate::program::checkout_root;

/// The seed the goldens were recorded at.
pub const GOLDEN_SEED: u64 = anneal_experiments::DEFAULT_SEED;

/// The golden file of `workload`.
pub fn path(workload: &str) -> PathBuf {
    checkout_root()
        .join("e2ebench")
        .join("golden")
        .join(format!("{workload}.txt"))
}

/// The header line naming what a golden covers: workload, seed and size.
pub fn header(workload: &str, seed: u64, size: &str) -> String {
    format!("# {workload} seed={seed} {size}")
}

/// Compares `actual` lines with the golden `text`: `Ok` on an exact match,
/// the first difference otherwise. A golden whose header names another
/// seed or size is stale and fails too, so that changing a workload's size
/// cannot switch its golden check off.
pub fn compare(text: &str, header: &str, actual: &[String]) -> Result<(), String> {
    let mut lines = text.lines();
    let found = lines.next().unwrap_or("");
    if found != header {
        return Err(format!(
            "the golden covers `{found}`, this run is `{header}`; re-bless it"
        ));
    }
    let expected: Vec<&str> = lines.collect();
    for (i, (want, got)) in expected.iter().zip(actual).enumerate() {
        if want != got {
            return Err(format!("line {}: expected `{want}`, got `{got}`", i + 1));
        }
    }
    if expected.len() != actual.len() {
        return Err(format!(
            "expected {} lines, got {}",
            expected.len(),
            actual.len()
        ));
    }
    Ok(())
}

/// Checks `actual` against the workload's golden; with `bless`, rewrites
/// the golden instead. Callers run it only at the golden seed and size.
pub fn check(workload: &str, header: &str, actual: &[String], bless: bool) -> Result<(), String> {
    let path = path(workload);
    if bless {
        let mut text = format!("{header}\n");
        for line in actual {
            text.push_str(line);
            text.push('\n');
        }
        return std::fs::write(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    compare(&text, header, actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_header_and_difference_are_named() {
        let golden = "# w seed=1 scale=2\na\t1\nb\t2\n";
        let ok = ["a\t1".to_string(), "b\t2".to_string()];
        assert_eq!(compare(golden, "# w seed=1 scale=2", &ok), Ok(()));
        let err = compare(golden, "# w seed=1 scale=4", &ok).unwrap_err();
        assert!(err.contains("re-bless"), "{err}");
        let bad = ["a\t1".to_string(), "b\t3".to_string()];
        let err = compare(golden, "# w seed=1 scale=2", &bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(compare(golden, "# w seed=1 scale=2", &ok[..1]).is_err());
    }
}
