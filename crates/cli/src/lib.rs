//! # vaq-cli
//!
//! A small command-line surface over the `vaq` workspace — the workflow a
//! downstream user runs without writing Rust:
//!
//! ```text
//! vaq-cli gen    --kind movie --id "Coffee and Cigarettes" --out videos/ --scale 0.1
//! vaq-cli ingest --script videos/coffee_and_cigarettes.json --repo repo/
//! vaq-cli info   --repo repo/
//! vaq-cli fsck   --repo repo/
//! vaq-cli query  --repo repo/ --sql "SELECT MERGE(clipID), RANK(act,obj) FROM \
//!                (PROCESS any PRODUCE clipID) WHERE act='smoking' \
//!                AND obj.include('wine glass','cup') ORDER BY RANK(act,obj) LIMIT 5"
//! vaq-cli stream --script videos/coffee_and_cigarettes.json --sql \
//!                "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='smoking'"
//! ```
//!
//! Scripted videos (JSON scene scripts) stand in for video files; see
//! `DESIGN.md` for the simulation substrate. The binary is a thin wrapper
//! around [`run`], which is unit-tested directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::Args;

use std::sync::Arc;
use vaq_types::VaqError;

/// The commands a leading `--trace` applies to: the ones that emit spans.
const TRACED_COMMANDS: [&str; 4] = ["ingest", "stream", "serve-sim", "demo"];

/// Usage text printed on `help` or argument errors.
pub const USAGE: &str = "\
vaq-cli — querying for actions over (scripted) videos

USAGE:
  vaq-cli [--trace <FILE>] <COMMAND> ...

  A leading `--trace <FILE>` streams every span the command emits as JSON
  lines to FILE and prints a per-stage latency summary when done. It applies
  to the commands that trace: ingest, stream, serve-sim and demo.

COMMANDS:
  vaq-cli gen    --kind <youtube|movie|drift> [--id <q1|title>] --out <DIR>
                 [--scale <F>] [--seed <N>]
  vaq-cli ingest --script <FILE> --repo <DIR> [--name <NAME>]
                 [--models <maskrcnn|yolo|ideal>] [--seed <N>]
  vaq-cli info   --repo <DIR>
  vaq-cli fsck   --repo <DIR>
  vaq-cli query  --repo <DIR> --sql <SQL>
  vaq-cli stream --script <FILE> --sql <SQL>
                 [--models <maskrcnn|yolo|ideal>] [--seed <N>]
  vaq-cli serve-sim [--seed <N>] [--minutes <N>] [--tenants <N>]
                 [--submissions <N>] [--queue <N>] [--policy <reject|shed|degrade>]
                 [--keep-every <N>] [--deadline-ms <N>] [--faults <N>]
                 [--models <maskrcnn|yolo|ideal>]
  vaq-cli demo   [--k <N>] [--models <maskrcnn|yolo|ideal>] [--seed <N>]
  vaq-cli help

EXIT CODES:
  0  success (fsck: repository clean)
  2  usage or I/O error
  3  fsck: corrupt file(s)          4  fsck: missing file(s)
  5  fsck: both corrupt and missing files
";

/// Why [`run`] failed. The binary exits with code 2 either way.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong: arguments that do not parse, an unknown
    /// command, or `--trace` without a path or before a command that
    /// writes no trace.
    Usage(VaqError),
    /// A command ran and failed: I/O (including spans the `--trace` file
    /// could not take), a malformed or unsupported file, a missing flag or
    /// value the command needs, a failed gate.
    Command(VaqError),
}

impl Failure {
    /// What the binary prints on stderr: the `error:` line, followed by
    /// [`USAGE`] for a usage error only.
    pub fn report(&self) -> String {
        match self {
            Failure::Usage(e) => format!("error: {e}\n{USAGE}"),
            Failure::Command(e) => format!("error: {e}"),
        }
    }
}

impl From<Failure> for VaqError {
    fn from(failure: Failure) -> Self {
        let (Failure::Usage(e) | Failure::Command(e)) = failure;
        e
    }
}

/// Dispatches a full argument vector (without `argv[0]`); output lines are
/// pushed to `out` so tests can assert on them. `Ok` carries the process
/// exit code (nonzero for commands like `fsck` that classify findings —
/// see the `EXIT CODES` section of [`USAGE`]); `Err` is a usage or command
/// failure the binary reports with [`Failure::report`] and maps to exit
/// code 2.
pub fn run(argv: &[String], out: &mut Vec<String>) -> std::result::Result<i32, Failure> {
    // A leading `--trace <FILE>` applies to the traced command that
    // follows: spans stream to FILE as JSON lines and a summary table is
    // printed at exit. It is peeled off here because `Args::parse` handles
    // per-command flags only.
    let (trace_path, argv) = if argv.first().is_some_and(|t| t == "--trace") {
        let Some(path) = argv.get(1) else {
            return Err(Failure::Usage(VaqError::InvalidConfig(
                "--trace needs a file path".into(),
            )));
        };
        (Some(path), &argv[2..])
    } else {
        (None, argv)
    };

    let Some((command, rest)) = argv.split_first() else {
        if trace_path.is_some() {
            return Err(Failure::Usage(VaqError::InvalidConfig(
                "--trace needs a command".into(),
            )));
        }
        out.push(USAGE.to_string());
        return Ok(0);
    };
    let args = Args::parse(rest).map_err(Failure::Usage)?;
    // The caller keeps one handle on the sink to read its write errors
    // once the command is done; the tracer owns the other.
    let (tracer, sink) = match trace_path {
        Some(path) => {
            if !TRACED_COMMANDS.contains(&command.as_str()) {
                return Err(Failure::Usage(VaqError::InvalidConfig(format!(
                    "--trace applies only to {}; {command:?} writes no trace",
                    TRACED_COMMANDS.join(", ")
                ))));
            }
            let sink = Arc::new(
                trace::JsonLinesSink::create(std::path::Path::new(path))
                    .map_err(|e| Failure::Command(e.into()))?,
            );
            let tracer = trace::Tracer::new(trace::MonotonicClock::new(), Arc::clone(&sink));
            (tracer, Some((path, sink)))
        }
        None => (trace::Tracer::disabled(), None),
    };
    let result = match command.as_str() {
        "gen" => commands::gen(&args, out).map(|()| 0),
        "ingest" => commands::ingest(&args, out, &tracer).map(|()| 0),
        "info" => commands::info(&args, out).map(|()| 0),
        "fsck" => commands::fsck(&args, out),
        "query" => commands::query(&args, out).map(|()| 0),
        "stream" => commands::stream(&args, out, &tracer).map(|()| 0),
        "serve-sim" => commands::serve_sim(&args, out, &tracer).map(|()| 0),
        "demo" => commands::demo(&args, out, &tracer).map(|()| 0),
        "help" | "--help" | "-h" => {
            out.push(USAGE.to_string());
            Ok(0)
        }
        other => {
            return Err(Failure::Usage(VaqError::InvalidConfig(format!(
                "unknown command {other:?}; see `vaq-cli help`"
            ))))
        }
    };
    if let Some((path, sink)) = sink {
        tracer.flush();
        for line in tracer.snapshot().render_table().lines() {
            out.push(line.to_string());
        }
        let errors = sink.write_errors();
        if errors == 0 {
            out.push(format!("trace written to {path}"));
        } else if result.is_ok() {
            return Err(Failure::Command(VaqError::Io(std::io::Error::other(
                format!("trace {path}: {errors} span write(s) failed"),
            ))));
        }
    }
    result.map_err(Failure::Command)
}
