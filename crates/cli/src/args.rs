//! A small `--key value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command line: a subcommand path and `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// Every key a subcommand asked for, passed or not.
    read: RefCell<HashSet<String>>,
}

/// Errors produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name). `--key value` pairs
    /// become options; `--flag` followed by another option or nothing
    /// becomes a boolean flag; everything else is positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty option name '--'".into()));
                }
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_string(), value);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// The positional arguments (subcommand path).
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// Fails on a passed option or flag that nothing has asked for — a
    /// typo, or an option of another subcommand.
    pub fn reject_unread(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        let unread = self.options.keys().chain(&self.flags);
        match unread.filter(|key| !read.contains(*key)).min() {
            Some(key) => Err(ArgError(format!("unknown option --{key}"))),
            None => Ok(()),
        }
    }

    /// A parsed numeric option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {v}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&["simulate", "--racks", "20", "--policy", "ear", "--relocate"]);
        assert_eq!(a.positional(), ["simulate"]);
        assert_eq!(a.get("racks"), Some("20"));
        assert_eq!(a.get("policy"), Some("ear"));
        assert!(a.flag("relocate"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn numeric_parsing_with_default() {
        let a = parse(&["--k", "10"]);
        assert_eq!(a.get_parsed("k", 4usize).unwrap(), 10);
        assert_eq!(a.get_parsed("n", 14usize).unwrap(), 14);
        let bad = parse(&["--k", "ten"]);
        assert!(bad.get_parsed("k", 4usize).is_err());
    }

    #[test]
    fn unread_options_and_flags_are_rejected() {
        let a = parse(&["--plans", "3", "--verbose"]);
        assert_eq!(
            a.reject_unread(),
            Err(ArgError("unknown option --plans".into()))
        );
        assert_eq!(a.get_parsed("plans", 1u64).unwrap(), 3);
        assert_eq!(
            a.reject_unread(),
            Err(ArgError("unknown option --verbose".into()))
        );
        assert!(a.flag("verbose"));
        // Asking for a key that was not passed is not an error.
        assert!(!a.flag("quiet"));
        assert_eq!(a.reject_unread(), Ok(()));
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["run", "--verbose"]);
        assert!(a.flag("verbose"));
    }

    #[test]
    fn empty_option_rejected() {
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }
}
