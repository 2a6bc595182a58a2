//! Runs the paper's evaluation and prints one JSON object per measurement
//! (`ph_bench::paper`; DESIGN.md §6 maps each experiment to its figure).
//!
//! ```text
//! cargo run --release -p ph-bench --bin paper -- [--only EXPERIMENT] [--rows N] [--seed S]
//! ```
//!
//! Without `--rows` or `--seed`, each experiment runs at its own default.
//! Exits 2 on a flag it does not know or a value it cannot parse, and 1 when
//! an experiment emits no row.

use std::process::exit;

use ph_bench::paper::experiments;

/// The flags `paper` takes.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    only: Option<String>,
    rows: Option<usize>,
    seed: Option<u64>,
}

/// Parses `--only`, `--rows` and `--seed`; anything else is an error.
fn parse(args: &[String], names: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--only" if names.contains(&value.as_str()) => flags.only = Some(value.clone()),
            "--only" => return Err(format!("no experiment named {value}")),
            "--rows" => flags.rows = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

fn main() {
    let experiments = experiments();
    let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse(&args, &names).unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        eprintln!("usage: paper [--only {}] [--rows N] [--seed S]", names.join("|"));
        exit(2)
    });
    for e in &experiments {
        if flags.only.as_deref().is_some_and(|only| only != e.name) {
            continue;
        }
        let rows = (e.run)(&e.datasets, flags.rows.unwrap_or(e.rows), flags.seed.unwrap_or(e.seed));
        if rows.is_empty() {
            eprintln!("paper: {} emitted no row", e.name);
            exit(1);
        }
        for row in &rows {
            println!("{}", row.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, &["fig8", "table6"])
    }

    #[test]
    fn parses_the_three_flags_and_rejects_everything_else() {
        assert_eq!(parse_str(""), Ok(Flags::default()));
        assert_eq!(
            parse_str("--rows 20000 --only table6 --seed 3"),
            Ok(Flags { only: Some("table6".into()), rows: Some(20_000), seed: Some(3) })
        );
        for bad in [
            "--rows 2e5",
            "--rows 0",
            "--rows",
            "--row 20000",
            "--queries 40",
            "--seed -1",
            "--only fig99",
            "fig8",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
