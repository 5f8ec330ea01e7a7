//! The two helpers every hand-written JSON writer in the workspace shares:
//! the WAL, chain traces, job records, the metrics snapshot, the ops
//! endpoints and the bench report all escape strings and write floats
//! through these, so one value has one spelling everywhere.

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` get a
/// backslash, newline, carriage return and tab their short escapes, every
/// other control character `\u00XX`; all else, non-ASCII included, passes
/// through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `v` as a JSON number in Rust's shortest round-trip form, or `null` for
/// NaN and the infinities, which JSON cannot spell.
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_uses_short_forms_where_json_has_them() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape("é ∑ 🦀 \u{7f}"), "é ∑ 🦀 \u{7f}");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
        assert_eq!(float(2.5), "2.5");
        assert_eq!(float(-0.1), "-0.1");
    }
}
