//! The one argument parser behind every `bench` subcommand.
//!
//! A subcommand is a [`Sub`]: a table of [`Flag`]s (name, value shape,
//! default, help), an optional positional command word, and the
//! [`Rule`]s its flags must obey together. [`parse`] walks an argument
//! list against that table and checks every value's shape as it goes, so
//! a subcommand never starts minutes of work on input it would reject at
//! the end; `--help` is generated from the same table. Unknown flags,
//! missing values, malformed lists and broken rules all stop the process
//! with exit code 2 before any work begins.

use churnlab_topology::WorldScale;
use std::process::ExitCode;
use std::str::FromStr;

/// The shape a flag's value must have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Unsigned integer in `min..=max`.
    Int { min: u64, max: u64 },
    /// Float in `(0, max]`.
    Float { max: f64 },
    /// Free text: a path, a digest.
    Text,
    /// Comma-separated positive counts, e.g. `1,2,4,8`.
    Counts,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
}

/// Any unsigned integer.
pub const UINT: Kind = Kind::Int { min: 0, max: u64::MAX };
/// A positive integer.
pub const POSITIVE: Kind = Kind::Int { min: 1, max: u64::MAX };
/// A day count (the engine's day clock is `u32`).
pub const DAYS: Kind = Kind::Int { min: 0, max: u32::MAX as u64 };
/// Any positive float.
pub const RATIO: Kind = Kind::Float { max: f64::INFINITY };
/// A fraction in `(0, 1]`.
pub const FRACTION: Kind = Kind::Float { max: 1.0 };
/// The study scales every study-shaped subcommand accepts.
pub const SCALES: Kind = Kind::Choice(&["smoke", "small", "paper"]);

impl Kind {
    /// What to tell the user a value should look like.
    fn expects(&self) -> String {
        match *self {
            Kind::Int { min, max: u64::MAX } => format!("an integer >= {min}"),
            Kind::Int { min, max } => format!("an integer in {min}..={max}"),
            Kind::Float { max } if max.is_infinite() => "a positive number".into(),
            Kind::Float { max } => format!("a number in (0, {max}]"),
            Kind::Switch | Kind::Text => "a value".into(),
            Kind::Counts => "comma-separated positive counts, e.g. 1,2,4,8".into(),
            Kind::Choice(words) => words.join("|"),
        }
    }
}

/// One row of a subcommand's flag table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flag {
    /// The flag as typed, e.g. `--seed`.
    pub name: &'static str,
    /// Shape of its value.
    pub kind: Kind,
    /// Default, in the same text form a user would type (`""` = none).
    /// It goes through the same check as user input.
    pub default: &'static str,
    /// One line for `--help`.
    pub help: &'static str,
}

impl Flag {
    /// A table row.
    pub const fn new(
        name: &'static str,
        kind: Kind,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { name, kind, default, help }
    }
}

// Rows several tables share verbatim.
/// `--seed N`.
pub const SEED: Flag = Flag::new("--seed", UINT, "42", "study seed");
/// `--repeats N`.
pub const REPEATS: Flag = Flag::new("--repeats", UINT, "3", "timed repeats per row (best of)");
/// `--out FILE`, report to stdout when absent.
pub const OUT: Flag = Flag::new("--out", Kind::Text, "", "write the JSON report here (default: stdout)");
/// `--min-speedup X`.
pub const MIN_SPEEDUP: Flag =
    Flag::new("--min-speedup", RATIO, "", "exit 1 unless every row beats its in-process reference this many times");
/// `--scale` defaulting to the seconds-long smoke study.
pub const SCALE_SMOKE: Flag = Flag::new("--scale", SCALES, "smoke", "study scale");

/// A constraint between two flags of one subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The two may not be given together.
    Conflict(&'static str, &'static str),
    /// The first is only meaningful next to the second.
    Needs(&'static str, &'static str),
    /// Exactly one of the two must be given.
    ExactlyOne(&'static str, &'static str),
}

/// One `bench` subcommand.
pub struct Sub {
    /// The word after `bench`.
    pub name: &'static str,
    /// One line for the top-level `--help`.
    pub about: &'static str,
    /// Its flag table.
    pub flags: &'static [Flag],
    /// Its positional command word (`experiments fig4`), if it takes
    /// one: a [`Kind::Choice`] row whose name is the `--help` placeholder.
    pub positional: Option<Flag>,
    /// Constraints among its flags.
    pub rules: &'static [Rule],
    /// Its entry point; the exit code is 1 when a gate it was asked to
    /// hold failed.
    pub run: fn(&Args) -> ExitCode,
}

/// Every subcommand of the `bench` binary.
pub const SUBCOMMANDS: [&Sub; 7] = [
    &crate::experiments::SUB,
    &crate::matrix::SUB,
    &crate::enginebench::SUB,
    &crate::campaignbench::SUB,
    &crate::replaybench::SUB,
    &crate::longhaul::SUB,
    &crate::routebench::SUB,
];

/// Why parsing stopped without arguments to run on.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    /// `--help` was asked for: the text to print, exit 0.
    Help(String),
    /// The command line is wrong: the message to print, exit 2.
    Usage(String),
}

/// A subcommand's checked arguments: each value is kept as the text that
/// passed its flag's [`Kind`] check. Readers panic on a flag name the
/// subcommand's table does not declare, and on a target type the table's
/// range does not fit — typos in this crate, not user errors.
pub struct Args {
    /// The subcommand they were parsed for.
    pub sub: &'static Sub,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// A flag's value as typed (or its default), if it has one.
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            self.sub.flags.iter().chain(&self.sub.positional).any(|f| f.name == name),
            "`{}` has no flag `{name}`",
            self.sub.name
        );
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether a switch was given (or a valued flag has a value).
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// A numeric flag's value, if it has one.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|raw| {
            raw.parse().unwrap_or_else(|_| panic!("{name}'s table admits `{raw}`, its reader cannot"))
        })
    }

    /// A numeric flag that has a default.
    pub fn req<T: FromStr>(&self, name: &str) -> T {
        self.get(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// A count-list flag's value (empty when it has none).
    pub fn counts(&self, name: &str) -> Vec<usize> {
        self.text(name).map_or(Vec::new(), |raw| raw.split(',').map(|n| n.parse().expect("checked")).collect())
    }

    /// A `--scale smoke|small|paper` flag's value, if it has one.
    pub fn scale(&self) -> Option<WorldScale> {
        self.text("--scale").map(|s| crate::parse_scale(s).expect("checked against SCALES"))
    }
}

/// Hold a value against its flag's [`Kind`].
fn check(flag: &Flag, raw: &str) -> Result<(), Stop> {
    let ok = match flag.kind {
        Kind::Switch | Kind::Text => true,
        Kind::Int { min, max } => raw.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
        Kind::Float { max } => raw.parse().is_ok_and(|x: f64| x > 0.0 && x <= max),
        Kind::Counts => raw.split(',').all(|n| n.parse().is_ok_and(|n: usize| n > 0)),
        Kind::Choice(words) => words.contains(&raw),
    };
    ok.then_some(()).ok_or_else(|| {
        Stop::Usage(format!("bad value `{raw}` for {}: expected {}", flag.name, flag.kind.expects()))
    })
}

/// Parse `argv` (the words after the subcommand name) against `sub`'s
/// tables.
pub fn parse(sub: &'static Sub, argv: &[String]) -> Result<Args, Stop> {
    let mut args = Args { sub, values: Vec::new() };
    for flag in sub.flags.iter().chain(&sub.positional).filter(|f| !f.default.is_empty()) {
        check(flag, flag.default)?;
        args.values.push((flag.name, flag.default.to_string()));
    }
    let mut given: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Stop::Help(sub.help()));
        }
        if let Some(flag) = sub.flags.iter().find(|f| f.name == arg) {
            let raw = match flag.kind {
                Kind::Switch => "",
                kind => it.next().ok_or_else(|| {
                    Stop::Usage(format!("{} needs a value: {}", flag.name, kind.expects()))
                })?,
            };
            check(flag, raw)?;
            args.values.push((flag.name, raw.to_string()));
            given.push(flag.name);
        } else if let Some(word) = sub.positional.filter(|_| !arg.starts_with('-')) {
            check(&word, arg)?;
            args.values.push((word.name, arg.clone()));
        } else {
            return Err(Stop::Usage(format!(
                "unknown argument `{arg}` (try `bench {} --help`)",
                sub.name
            )));
        }
    }
    for rule in sub.rules {
        let has = |name: &str| given.contains(&name);
        let broken = match *rule {
            Rule::Conflict(a, b) if has(a) && has(b) => format!("{a} cannot combine with {b}"),
            Rule::Needs(a, b) if has(a) && !has(b) => format!("{a} needs {b}"),
            Rule::ExactlyOne(a, b) if has(a) == has(b) => format!("exactly one of {a} / {b} is required"),
            _ => continue,
        };
        return Err(Stop::Usage(broken));
    }
    Ok(args)
}

impl Sub {
    /// The generated `bench <sub> --help` text.
    pub fn help(&self) -> String {
        let mut text = format!("bench {} — {}\n\nusage: bench {} [flags]", self.name, self.about, self.name);
        if let Some(word) = self.positional {
            text += &format!(" [{}]\n\n{}: {} (default {})", word.name, word.name, word.kind.expects(), word.default);
        }
        text += "\n\nflags:\n";
        for flag in self.flags {
            let default = match flag.default {
                "" => String::new(),
                d => format!(" [default {d}]"),
            };
            let value = match flag.kind {
                Kind::Switch => String::new(),
                kind => format!(" <{}>", kind.expects()),
            };
            text += &format!("  {}{value}\n      {}{default}\n", flag.name, flag.help);
        }
        text
    }
}

/// Pick the subcommand `argv[0]` names and parse the rest against it.
pub fn parse_command(argv: &[String]) -> Result<Args, Stop> {
    let list = || {
        let rows: Vec<String> =
            SUBCOMMANDS.iter().map(|s| format!("  {:<12} {}", s.name, s.about)).collect();
        format!("usage: bench <subcommand> [flags] (`bench <subcommand> --help` lists them)\n\n{}", rows.join("\n"))
    };
    match argv.first().map(String::as_str) {
        None => Err(Stop::Usage(list())),
        Some("--help" | "-h") => Err(Stop::Help(list())),
        Some(name) => match SUBCOMMANDS.iter().find(|s| s.name == name) {
            Some(sub) => parse(sub, &argv[1..]),
            None => Err(Stop::Usage(format!("unknown subcommand `{name}`\n{}", list()))),
        },
    }
}

/// The binary's whole `main`: parse, then run the subcommand. Usage
/// errors exit 2.
pub fn main(argv: &[String]) -> ExitCode {
    match parse_command(argv) {
        Ok(args) => (args.sub.run)(&args),
        Err(Stop::Help(text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(msg)) => usage_error(&msg),
    }
}

/// Report a problem with what the user asked for and return exit code 2.
pub fn usage_error(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(line: &str) -> Result<Args, Stop> {
        parse_command(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (line, why) in [
            ("engine --bogus", "unknown argument `--bogus`"),
            ("engine --seed", "--seed needs a value"),
            ("engine --seed x", "bad value `x` for --seed"),
            ("engine --shards 1,0", "bad value `1,0` for --shards"),
            ("engine --scale huge", "expected smoke|small|paper"),
            ("engine --min-efficiency 1.5", "a number in (0, 1]"),
            ("campaign --baseline b.json", "unknown argument `--baseline`"),
            ("route --update-baseline", "unknown argument `--update-baseline`"),
            ("engine --baseline b.json", "unknown argument `--baseline`"),
            ("engine --assert-overhead --assert-scaling", "cannot combine with --assert-scaling"),
            ("replay --shards 4", "exactly one of --export / --in"),
            ("replay --in d --checkpoint-every 5", "--checkpoint-every needs --checkpoint"),
            ("replay --in d --window-horizon 4294967296", "an integer in 0..=4294967295"),
            ("experiments fig9", "bad value `fig9` for COMMAND: expected all|table1|fig1a|"),
            ("matrix fig4", "unknown argument `fig4`"),
            ("route --cap 64", "unknown argument `--cap`"),
            ("nonesuch", "unknown subcommand `nonesuch`"),
        ] {
            match outcome(line) {
                Err(Stop::Usage(msg)) => assert!(msg.contains(why), "`{line}`: {msg}"),
                other => panic!("`{line}` should be a usage error, got {:?}", other.err()),
            }
        }
        assert!(matches!(outcome("route --help"), Err(Stop::Help(text)) if text.contains("--max-steady-allocs")));
    }

    #[test]
    fn values_defaults_and_the_last_occurrence_are_read_back() {
        let args = outcome("engine --shards 1,8 --seed 7 --seed 9 --assert-scaling").unwrap();
        assert_eq!(args.counts("--shards"), [1, 8]);
        assert_eq!((args.req::<u64>("--seed"), args.req::<usize>("--repeats")), (9, 3));
        assert_eq!(args.scale(), Some(WorldScale::Smoke));
        assert!(args.has("--assert-scaling") && !args.has("--assert-overhead"));
        assert_eq!(args.get::<f64>("--min-efficiency"), Some(0.7));
        assert_eq!(outcome("experiments").unwrap().text("COMMAND"), Some("all"));
        assert_eq!(outcome("experiments --seed 3 fig4").unwrap().text("COMMAND"), Some("fig4"));
    }

    /// Docs cannot drift: every `--bin bench -- …` command line in the CI
    /// workflow, the README and the verify skill parses against the tables.
    #[test]
    fn documented_command_lines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        for (file, at_least) in
            [(".github/workflows/ci.yml", 14), ("README.md", 22), (".claude/skills/verify/SKILL.md", 5)]
        {
            let text = std::fs::read_to_string(format!("{root}{file}")).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let mut found = 0;
            for (i, line) in lines.iter().enumerate() {
                let Some((_, rest)) = line.split_once("--bin bench -- ") else { continue };
                // A command runs on while a line ends in `\` or the next
                // one opens with a flag (YAML folded scalars).
                let mut words: Vec<&str> = rest.split_whitespace().collect();
                for next in &lines[i + 1..] {
                    let continued = words.last() == Some(&"\\");
                    words.retain(|w| *w != "\\");
                    if !continued && !next.trim_start().starts_with("--") {
                        break;
                    }
                    words.extend(next.split_whitespace());
                }
                // It ends at a comment, a shell operator, or the backtick
                // closing a Markdown code span.
                let end = words.iter().position(|w| w.starts_with(['#', '&', '|'])).unwrap_or(words.len());
                let tick = words[..end].iter().position(|w| w.contains('`')).map_or(end, |t| t + 1);
                let argv: Vec<String> = words[..tick]
                    .iter()
                    .map(|w| w.split('`').next().unwrap_or("").trim_matches('"').to_string())
                    .filter(|w| !w.is_empty())
                    .collect();
                let parsed = parse_command(&argv);
                assert!(
                    !matches!(parsed, Err(Stop::Usage(_))),
                    "{file}:{}: `bench {}` does not parse: {:?}",
                    i + 1,
                    argv.join(" "),
                    parsed.err()
                );
                found += 1;
            }
            assert!(found >= at_least, "{file}: only {found} bench command lines found");
        }
    }
}
