//! The process environment as a knob source: the one place that calls
//! `std::env::var`.
//!
//! The policy families read it through [`lookup`] (see [`crate::knobs`]);
//! stand-alone knobs (`GILLIS_BENCH_SEED`) use [`env_var`], which keeps the
//! unset-means-`None` contract but reports a malformed value on stderr with
//! the offending variable name, so a typo never changes behaviour silently.

use std::str::FromStr;

/// Parses `raw` (the value of environment variable `name`) as `T`.
///
/// # Errors
///
/// Returns the warning message emitted for a malformed value — naming the
/// variable and echoing the rejected input — so callers (and tests) can
/// surface it without touching process state.
pub fn parse_value<T: FromStr>(name: &str, raw: &str) -> std::result::Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("ignoring malformed {name}={raw:?}"))
}

/// The value of environment variable `name`, if set (and valid Unicode).
pub fn lookup(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Reads environment variable `name` as `T`. Unset → `None`; set but
/// malformed → a warning on stderr (naming the variable) and `None`.
pub fn env_var<T: FromStr>(name: &str) -> Option<T> {
    let raw = lookup(name)?;
    match parse_value(name, &raw) {
        Ok(v) => Some(v),
        Err(msg) => {
            eprintln!("gillis: {msg}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_value_names_the_offending_variable() {
        let err = parse_value::<f64>("GILLIS_CHAOS_RATE", "0.0.5").unwrap_err();
        assert!(err.contains("GILLIS_CHAOS_RATE"), "{err}");
        assert!(err.contains("0.0.5"), "{err}");
        assert_eq!(parse_value::<f64>("GILLIS_CHAOS_RATE", " 0.25 "), Ok(0.25));
        assert_eq!(parse_value::<u64>("GILLIS_CHAOS_SEED", "99"), Ok(99));
    }
}
