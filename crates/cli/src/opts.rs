//! Minimal argument parsing: positionals plus `--key value` flags.

use std::collections::HashMap;
use std::fmt;

/// CLI errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation; the string is the message/usage to print.
    Usage(String),
    /// The command ran but failed (bad parameters, infeasible fabric, I/O).
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(s) | CliError::Failed(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed arguments: positionals in order plus string-valued flags.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
}

impl Opts {
    /// Parse `--key value` flags; everything else is positional.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut out = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{key} expects a value")))?;
                out.flags.insert(key.to_string(), value.clone());
            } else {
                out.positionals.push(a.clone());
            }
        }
        Ok(out)
    }

    /// Positional `i` as a raw string.
    pub(crate) fn pos_str(&self, i: usize, name: &str) -> Result<&str, CliError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing argument <{name}>")))
    }

    /// Positional `i` parsed as `usize`.
    pub(crate) fn pos_usize(&self, i: usize, name: &str) -> Result<usize, CliError> {
        let raw = self
            .positionals
            .get(i)
            .ok_or_else(|| CliError::Usage(format!("missing argument <{name}>")))?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("<{name}> must be an integer, got `{raw}`")))
    }

    /// The `(n, m, r)` triple most commands take.
    pub(crate) fn nmr(&self) -> Result<(usize, usize, usize), CliError> {
        Ok((
            self.pos_usize(0, "n")?,
            self.pos_usize(1, "m")?,
            self.pos_usize(2, "r")?,
        ))
    }

    /// Optional flag as raw string.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Flag parsed as `T`, with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} got invalid value `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_mixed_args() {
        let o = Opts::parse(&argv("2 4 5 --router yuan --seed 7")).unwrap();
        assert_eq!(o.nmr().unwrap(), (2, 4, 5));
        assert_eq!(o.flag("router"), Some("yuan"));
        assert_eq!(o.flag_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.flag_or::<u64>("missing", 9).unwrap(), 9);
    }

    #[test]
    fn missing_flag_value() {
        assert!(matches!(
            Opts::parse(&argv("build --dot")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bad_numbers() {
        let o = Opts::parse(&argv("two 4 5")).unwrap();
        assert!(matches!(o.nmr(), Err(CliError::Usage(_))));
        let o = Opts::parse(&argv("2 4")).unwrap();
        assert!(matches!(o.nmr(), Err(CliError::Usage(_))));
        let o = Opts::parse(&argv("1 2 3 --rate abc")).unwrap();
        assert!(o.flag_or::<f64>("rate", 1.0).is_err());
    }
}
