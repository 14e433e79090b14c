//! Minimal command-line argument parsing.
//!
//! `tind <command> [positional..] [--flag value] [--switch]`. Hand-rolled
//! to stay within the workspace's dependency policy; see DESIGN.md.

use std::collections::BTreeMap;

/// Parsed arguments: positionals in order plus `--key value` / `--switch`
/// options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Errors from argument parsing or typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared at the end without its value while being
    /// accessed as a valued option.
    MissingValue(String),
    /// A required option was not supplied.
    MissingOption(String),
    /// An option's value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Raw value.
        value: String,
        /// Target type name.
        expected: &'static str,
    },
    /// Two options that cannot be combined were both given.
    Conflict {
        /// First option name.
        a: &'static str,
        /// Second option name.
        b: &'static str,
    },
    /// Options that are each valid but together have no safe order of
    /// effects; the text says why.
    Unsafe(&'static str),
    /// An option the command does not understand. Rejected up front so a
    /// typo'd `--chekpoint` fails at startup instead of silently running a
    /// long job without checkpointing.
    UnknownOption {
        /// The unrecognized option name.
        option: String,
        /// Closest known option, if any is plausibly what was meant.
        suggestion: Option<String>,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(o) => write!(f, "option --{o} is missing its value"),
            ArgError::MissingOption(o) => write!(f, "required option --{o} not given"),
            ArgError::BadValue { option, value, expected } => {
                write!(f, "option --{option}: cannot parse '{value}' as {expected}")
            }
            ArgError::Conflict { a, b } => {
                write!(f, "options --{a} and --{b} are mutually exclusive")
            }
            ArgError::Unsafe(why) => f.write_str(why),
            ArgError::UnknownOption { option, suggestion } => {
                write!(f, "unknown option --{option}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean --{s}?)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean switches (take no value).
const SWITCHES: &[&str] = &["help", "demo", "verbose", "quiet", "resume"];

impl Args {
    /// Parses raw arguments (excluding the program and command names).
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value =
                        iter.next().ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    args.options.insert(name.to_string(), value);
                }
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Raw option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Typed optional value.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| ArgError::BadValue {
                option: name.to_string(),
                value: raw.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Typed value with a default.
    pub fn opt_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// Typed required value.
    pub fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        self.opt(name)?.ok_or_else(|| ArgError::MissingOption(name.to_string()))
    }

    /// Rejects any option or switch not in `allowed`, suggesting the
    /// closest known name when the typo is near (edit distance ≤ 2).
    pub fn expect_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        let given = self.options.keys().map(String::as_str).chain(self.switches.iter().map(String::as_str));
        for name in given {
            if !allowed.contains(&name) {
                let suggestion = allowed
                    .iter()
                    .map(|a| (edit_distance(name, a), *a))
                    .filter(|&(d, _)| d <= 2)
                    .min()
                    .map(|(_, a)| a.to_string());
                return Err(ArgError::UnknownOption { option: name.to_string(), suggestion });
            }
        }
        Ok(())
    }
}

/// Levenshtein distance, for typo suggestions on unknown options.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positionals_options_switches() {
        let a = Args::parse(["fig7", "--seed", "42", "--demo", "--scale", "quick"]).expect("parses");
        assert_eq!(a.positional(), &["fig7".to_string()]);
        assert_eq!(a.get("seed"), Some("42"));
        assert_eq!(a.get("scale"), Some("quick"));
        assert!(a.switch("demo"));
        assert!(!a.switch("help"));
    }

    #[test]
    fn typed_access() {
        let a = Args::parse(["--eps", "3.5", "--delta", "7"]).expect("parses");
        assert_eq!(a.opt::<f64>("eps").expect("ok"), Some(3.5));
        assert_eq!(a.required::<u32>("delta").expect("ok"), 7);
        assert_eq!(a.opt_or::<u64>("seed", 9).expect("ok"), 9);
    }

    #[test]
    fn errors_are_descriptive() {
        let a = Args::parse(["--eps", "abc"]).expect("parses");
        let err = a.opt::<f64>("eps").expect_err("bad value");
        assert!(err.to_string().contains("cannot parse 'abc'"));
        let err = Args::parse(["--seed"]).expect_err("missing value");
        assert_eq!(err, ArgError::MissingValue("seed".to_string()));
        let a = Args::parse::<_, String>([]).expect("empty ok");
        let err = a.required::<u32>("delta").expect_err("missing option");
        assert!(err.to_string().contains("--delta"));
    }

    #[test]
    fn unknown_options_are_rejected_with_suggestions() {
        let a = Args::parse(["--chekpoint", "x.tcp", "--data", "d"]).expect("parses");
        let err = a.expect_known(&["data", "checkpoint", "resume"]).expect_err("unknown");
        assert_eq!(
            err.to_string(),
            "unknown option --chekpoint (did you mean --checkpoint?)"
        );
        a.expect_known(&["data", "chekpoint"]).expect("all known is ok");

        // A switch is checked too, and a wildly wrong name gets no guess.
        let a = Args::parse(["--resume", "--zzzzzz", "1"]).expect("parses");
        let err = a.expect_known(&["resume", "data"]).expect_err("unknown");
        assert_eq!(err.to_string(), "unknown option --zzzzzz");
    }
}
