//! Command-line reading for `repro`, `paldia-serve` and `paldia-run` (the
//! case-table tests of the first two cover it). Each binary lists every flag it knows once, in a
//! [`Flag`] table, and [`Cli::parse`] reads the whole command line against
//! it before any work starts. A value never starts with `--`, so a
//! forgotten value cannot swallow the next flag: `--report --quick` is
//! refused rather than read as a file named `--quick`.

use std::str::FromStr;

/// One known flag: its spelling, the number of values that follow it (0
/// for a switch), and what those values are, for error messages.
pub type Flag = (&'static str, usize, &'static str);

/// The error for a missing or refused value (`got`) of `flag`.
fn needs(&(name, _, usage): &Flag, got: Option<&str>) -> String {
    let got = got.map_or(String::new(), |v| format!(", got {v:?}"));
    format!("{name} needs {usage}{got}")
}

/// A command line read against a [`Flag`] table.
#[derive(Debug)]
pub struct Cli {
    flags: &'static [Flag],
    given: Vec<(&'static Flag, Vec<String>)>,
    /// The arguments that are neither a flag nor a flag's value, in order.
    pub positional: Vec<String>,
}

impl Cli {
    /// Read `args` (without the program name) against `flags`. Refuses an
    /// argument starting with `--` that is not in the table, a flag given
    /// twice, and a flag whose values are missing or start with `--`.
    pub fn parse(
        flags: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            flags,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = flags.iter().find(|f| f.0 == arg) else {
                if arg.starts_with("--") {
                    return Err(format!("unknown flag {arg}"));
                }
                cli.positional.push(arg);
                continue;
            };
            if cli.given.iter().any(|(f, _)| f.0 == flag.0) {
                return Err(format!("{} given more than once", flag.0));
            }
            let mut values = Vec::with_capacity(flag.1);
            for _ in 0..flag.1 {
                match args.next() {
                    Some(v) if !v.starts_with("--") => values.push(v),
                    got => return Err(needs(flag, got.as_deref())),
                }
            }
            cli.given.push((flag, values));
        }
        Ok(cli)
    }

    fn given(&self, name: &str) -> Option<&(&'static Flag, Vec<String>)> {
        debug_assert!(
            self.flags.iter().any(|f| f.0 == name),
            "{name} is not in the flag table"
        );
        self.given.iter().find(|(f, _)| f.0 == name)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The values of `name`, when it was given.
    pub fn values(&self, name: &str) -> Option<&[String]> {
        self.given(name).map(|(_, values)| values.as_slice())
    }

    /// The (first) value of `name`, when it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name)?.first().map(String::as_str)
    }

    /// The value of `name` read by `parse`: `Ok(None)` when the flag is
    /// absent, `Err` naming the flag and its usage when `parse` refuses it.
    pub fn parsed_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some((flag, values)) = self.given(name) else {
            return Ok(None);
        };
        let value = values.first().map_or("", String::as_str);
        parse(value)
            .map(Some)
            .ok_or_else(|| needs(flag, Some(value)))
    }

    /// [`Cli::parsed_with`] for a value read with [`str::parse`].
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed_with(name, |v| v.parse().ok())
    }
}
