//! Flag parsing shared by the `csspgo`, `csspgo_lint` and `csspgo_diff`
//! binaries.
//!
//! A value flag must be followed by its value: a flag at the end of the
//! argument list, or followed by another `--flag`, is an error rather than
//! a silently ignored option.

/// The value following `args[i]`, or an error naming `flag`.
fn value_at(args: &[String], i: usize, flag: &str) -> Result<String, String> {
    args.get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value of the first `flag`, if given.
///
/// # Errors
///
/// Returns an error if `flag` is given without a value.
pub fn opt_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| value_at(args, i, flag))
        .transpose()
}

/// Every value of a repeatable `flag`, in order.
///
/// # Errors
///
/// Returns an error if any occurrence of `flag` has no value.
pub fn multi_value(args: &[String], flag: &str) -> Result<Vec<String>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| value_at(args, i, flag))
        .collect()
}

/// Whether the boolean `flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn values_are_found_and_dangling_flags_rejected() {
        let a = args("x --format context --deny A --deny B -o out");
        assert_eq!(opt_value(&a, "--format"), Ok(Some("context".into())));
        assert_eq!(opt_value(&a, "--missing"), Ok(None));
        assert_eq!(multi_value(&a, "--deny"), Ok(vec!["A".into(), "B".into()]));
        assert_eq!(opt_value(&a, "-o"), Ok(Some("out".into())));

        let dangling = args("x --samples s.json --format");
        assert!(opt_value(&dangling, "--format").is_err());
        let followed = args("x --repeat --samples-out s.json");
        assert!(opt_value(&followed, "--repeat").is_err());
        assert!(multi_value(&args("--deny A --deny"), "--deny").is_err());
        // Negative numbers are values, not flags.
        assert_eq!(
            opt_value(&args("--args -3,1"), "--args"),
            Ok(Some("-3,1".into()))
        );
    }
}
