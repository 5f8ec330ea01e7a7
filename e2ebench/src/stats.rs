//! Order statistics and the record digest shared by every workload.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// 64-bit FNV-1a: the digest the job goldens pin each record with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
