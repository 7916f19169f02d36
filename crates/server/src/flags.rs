//! The one command-line parser of the workspace's binaries: `goccd` and
//! every harness under `crates/loadgen/src/bin`.
//!
//! A binary builds one [`Flags`] chain, a row per flag: its name, how its
//! value reads in the usage line, and the field it sets. [`Flags::parse`]
//! walks the command line against those rows, and the usage line is
//! generated from them, so a flag is written once. The row helpers carry
//! the value rules — [`Flags::count`] and [`Flags::positive_millis`]
//! refuse 0 — and a malformed value comes back as `"<flag>: <reason>"`.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use crate::{parse_mode, Mode};

type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

struct Flag<'a> {
    name: &'static str,
    /// How the value reads in the usage line; `None` for a switch.
    placeholder: Option<&'static str>,
    set: Setter<'a>,
}

/// A binary's flags: each row names a flag, how its value reads in the
/// usage line, and the field it sets. [`Flags::parse`] walks the command
/// line against the table; the usage text is generated from it.
pub struct Flags<'a> {
    program: &'static str,
    flags: Vec<Flag<'a>>,
}

impl<'a> Flags<'a> {
    pub fn new(program: &'static str) -> Self {
        Flags {
            program,
            flags: Vec::new(),
        }
    }

    /// A flag whose value `set` parses and stores.
    pub fn value(
        mut self,
        name: &'static str,
        placeholder: &'static str,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Self {
        self.flags.push(Flag {
            name,
            placeholder: Some(placeholder),
            set: Box::new(set),
        });
        self
    }

    /// A flag holding anything `FromStr` reads: counts, rates, paths.
    pub fn num<T: FromStr>(
        self,
        name: &'static str,
        placeholder: &'static str,
        target: &'a mut T,
    ) -> Self
    where
        T::Err: fmt::Display,
    {
        self.value(name, placeholder, move |v| {
            *target = v.parse().map_err(|e: T::Err| e.to_string())?;
            Ok(())
        })
    }

    /// An unsigned count that must be at least 1.
    pub fn count<T: FromStr + Default + PartialEq>(
        self,
        name: &'static str,
        target: &'a mut T,
    ) -> Self
    where
        T::Err: fmt::Display,
    {
        self.value(name, "N", move |v| {
            *target = positive(v)?;
            Ok(())
        })
    }

    /// A flag that is unset (`None`) until given.
    pub fn opt<T: FromStr>(
        self,
        name: &'static str,
        placeholder: &'static str,
        target: &'a mut Option<T>,
    ) -> Self
    where
        T::Err: fmt::Display,
    {
        self.value(name, placeholder, move |v| {
            *target = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
            Ok(())
        })
    }

    /// A duration given in milliseconds.
    pub fn millis(self, name: &'static str, target: &'a mut Duration) -> Self {
        self.value(name, "N", move |v| {
            *target = Duration::from_millis(v.parse::<u64>().map_err(|e| e.to_string())?);
            Ok(())
        })
    }

    /// A duration given in milliseconds that must be at least 1.
    pub fn positive_millis(self, name: &'static str, target: &'a mut Duration) -> Self {
        self.value(name, "N", move |v| {
            *target = Duration::from_millis(positive(v)?);
            Ok(())
        })
    }

    /// A string flag where the literal `none` switches the feature off.
    pub fn or_none(
        self,
        name: &'static str,
        placeholder: &'static str,
        target: &'a mut Option<String>,
    ) -> Self {
        self.value(name, placeholder, move |v| {
            *target = (v != "none").then(|| v.to_string());
            Ok(())
        })
    }

    /// A flag that takes no value.
    pub fn switch(mut self, name: &'static str, target: &'a mut bool) -> Self {
        self.flags.push(Flag {
            name,
            placeholder: None,
            set: Box::new(move |_| {
                *target = true;
                Ok(())
            }),
        });
        self
    }

    pub fn seed(self, target: &'a mut u64) -> Self {
        self.num("--seed", "N", target)
    }

    /// `--mode lock|gocc|both`; `both` is `None`.
    pub fn mode(self, target: &'a mut Option<Mode>) -> Self {
        self.value("--mode", "lock|gocc|both", move |v| {
            *target = if v == "both" {
                None
            } else {
                Some(parse_mode(v)?)
            };
            Ok(())
        })
    }

    pub fn stall_secs(self, target: &'a mut u64) -> Self {
        self.num("--stall-secs", "N", target)
    }

    pub fn goccd(self, target: &'a mut String) -> Self {
        self.num("--goccd", "PATH", target)
    }

    pub fn usage(&self) -> String {
        let mut text = format!("usage: {}", self.program);
        for flag in &self.flags {
            match flag.placeholder {
                Some(p) => text.push_str(&format!(" [{} {p}]", flag.name)),
                None => text.push_str(&format!(" [{}]", flag.name)),
            }
        }
        text
    }

    /// Applies the command line to the table. `--help` and every
    /// malformed input come back as the `Err` to print.
    pub fn parse(mut self, raw: &[String]) -> Result<(), String> {
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(self.usage());
            }
            let Some(i) = self.flags.iter().position(|f| f.name == arg) else {
                return Err(format!("unknown flag {arg:?}\n{}", self.usage()));
            };
            let value = match self.flags[i].placeholder {
                None => "",
                Some(_) => it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value\n{}", self.usage()))?,
            };
            (self.flags[i].set)(value).map_err(|e| format!("{arg}: {e}"))?;
        }
        Ok(())
    }
}

/// Parses an unsigned value that must be at least 1 (its type's zero is
/// its default).
fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let n: T = v.parse().map_err(|e: T::Err| e.to_string())?;
    if n == T::default() {
        return Err("must be >= 1".into());
    }
    Ok(n)
}
