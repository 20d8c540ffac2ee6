//! The JSONL framing shared by the trace sink ([`crate::trace`]), the
//! flight dump ([`crate::flight`]) and the metrics stream
//! ([`crate::metrics`]). The three files differ only in retention — a
//! stream sink, a per-thread ring, a periodic sampler — and in what their
//! lines carry; the framing is this module's:
//!
//! * every line is one compact JSON object, `{"type":<t>,…}`, built by
//!   [`line`];
//! * every line goes through one [`Writer`], which counts each failed
//!   serialize, write or flush in one process-wide tally
//!   ([`trace_write_errors`]) instead of raising it;
//! * every file is read back by one loop, [`read`], which owns the
//!   line numbering, the JSON/object/`type` checks and the schema line.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Serialize, Value};

/// Lines a telemetry file writer failed to serialize, write or flush
/// (full disk, closed pipe). Failures stay swallowed at the call site — a
/// full disk must not panic inside a span guard's `Drop` — but they are
/// *counted* here and surfaced as the `trace.write_errors` counter in
/// [`crate::snapshot`] and as `write_errors` on the trace `end` line.
static WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Telemetry file write failures so far (serialization or I/O, across
/// the trace sink and the metrics stream).
pub fn trace_write_errors() -> u64 {
    WRITE_ERRORS.load(Ordering::Relaxed)
}

/// Zeroes the write-error count (part of [`crate::reset`]).
pub(crate) fn reset_write_errors() {
    WRITE_ERRORS.store(0, Ordering::Relaxed);
}

fn count_write_error() {
    WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
}

/// `{"type":<ty>, …fields}`: the one line shape of all three files.
pub(crate) fn line<K: Into<String>>(
    ty: &str,
    fields: impl IntoIterator<Item = (K, Value)>,
) -> Value {
    let mut obj = vec![("type".to_string(), Value::String(ty.to_string()))];
    obj.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Value::Object(obj)
}

/// The fields of a struct that derives `Serialize`, in declaration order,
/// for splicing into a [`line`].
pub(crate) fn fields(body: &impl Serialize) -> Vec<(String, Value)> {
    let Value::Object(fields) = body.serialize_value() else {
        unreachable!("a named-field struct serializes as an object")
    };
    fields
}

/// The one JSONL line writer: serializes each value compactly, appends a
/// newline, and counts the lines it emitted. Errors are counted in the
/// shared write-error tally, never returned.
pub(crate) struct Writer<W: Write> {
    out: W,
    /// Lines emitted so far, including any the file held before this
    /// writer opened it.
    pub(crate) lines: u64,
}

impl<W: Write> Writer<W> {
    /// A writer over `out` that already holds `lines` lines.
    pub(crate) fn new(out: W, lines: u64) -> Self {
        Self { out, lines }
    }

    /// Writes `value` as one line.
    pub(crate) fn write(&mut self, value: &Value) {
        match serde_json::to_string(value) {
            Ok(mut json) => {
                json.push('\n');
                if self.out.write_all(json.as_bytes()).is_err() {
                    count_write_error();
                }
                self.lines += 1;
            }
            Err(_) => count_write_error(),
        }
    }

    pub(crate) fn flush(&mut self) {
        if self.out.flush().is_err() {
            count_write_error();
        }
    }

    pub(crate) fn into_inner(self) -> W {
        self.out
    }
}

/// The string at `key`, if present and a string.
pub(crate) fn field_str<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    obj.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_str())
}

/// The non-negative integer at `key`, if present; float-encoded integers
/// are accepted (and truncated).
pub(crate) fn field_u64(obj: &[(String, Value)], key: &str) -> Option<u64> {
    obj.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    })
}

fn take(obj: &mut Vec<(String, Value)>, key: &str) -> Option<Value> {
    let at = obj.iter().position(|(k, _)| k == key)?;
    Some(obj.remove(at).1)
}

/// Reads a JSONL file whose first line must be the meta line naming
/// `schema`. Blank lines are skipped; every other line must be a JSON
/// object with a string `type`, which is removed from the object (as is
/// `schema` from meta lines) before `each(type, fields)` sees it. Errors
/// from the loop and from `each` carry the 1-based number of the first
/// offending line. Returns the number of non-blank lines.
pub(crate) fn read(
    path: &Path,
    schema: &str,
    mut each: impl FnMut(&str, Vec<(String, Value)>) -> Result<(), String>,
) -> Result<usize, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut lines = 0;
    for (idx, text) in BufReader::new(file).lines().enumerate() {
        let lineno = idx + 1;
        let text = text.map_err(|e| format!("reading line {lineno}: {e}"))?;
        if text.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {lineno}: {e}");
        let value: Value =
            serde_json::from_str(&text).map_err(|e| at(format!("invalid JSON: {e}")))?;
        let Value::Object(mut obj) = value else {
            return Err(at("expected a JSON object".into()));
        };
        let Some(Value::String(ty)) = take(&mut obj, "type") else {
            return Err(at("missing \"type\"".into()));
        };
        let declared = if ty == "meta" { take(&mut obj, "schema") } else { None };
        if lines == 0 {
            match declared {
                Some(Value::String(s)) if s == schema => {}
                Some(Value::String(s)) => {
                    return Err(at(format!("unsupported schema {s:?} (expected {schema:?})")));
                }
                Some(_) => return Err(at("\"schema\" must be a string".into())),
                None => return Err(at("missing schema meta line".into())),
            }
        }
        lines += 1;
        each(&ty, obj).map_err(at)?;
    }
    if lines == 0 {
        return Err(format!("{}: empty file", path.display()));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use crate::flight::{read_flight, FLIGHT_SCHEMA};
    use crate::trace::{read_trace, TRACE_SCHEMA};

    /// Both readers go through [`super::read`], so every malformed input
    /// must earn both the same error, naming the same line. In the
    /// expected messages `{s}` stands for the reader's schema and
    /// `{path}` for the file.
    #[test]
    fn both_readers_reject_malformed_files_alike() {
        // (case, starts with a valid schema line?, rest of file, error)
        let rows: [(&str, bool, &[u8], &str); 10] = [
            ("not JSON", true, b"nope\n", "line 2: invalid JSON: "),
            ("not an object", true, b"[1,2]\n", "line 2: expected a JSON object"),
            ("no type", true, b"{\"name\":\"x\"}\n", "line 2: missing \"type\""),
            (
                "unknown type",
                true,
                b"{\"type\":\"bogus\"}\n",
                "line 2: unknown line type \"bogus\"",
            ),
            (
                "non-string schema",
                false,
                b"{\"type\":\"meta\",\"schema\":7}\n",
                "line 1: \"schema\" must be a string",
            ),
            (
                "wrong schema",
                false,
                b"{\"type\":\"meta\",\"schema\":\"other/v9\"}\n",
                "line 1: unsupported schema \"other/v9\" (expected \"{s}\")",
            ),
            ("no meta line", false, b"{\"type\":\"end\"}\n", "line 1: missing schema meta line"),
            ("empty file", false, b"\n  \n", "{path}: empty file"),
            ("truncated last line", true, b"{\"type\":\"ev", "line 2: invalid JSON: "),
            ("invalid UTF-8 on line 2", true, b"{\"type\":\"\xff\"}\n", "reading line 2: "),
        ];
        type Reader = fn(&Path) -> Result<(), String>;
        let readers: [(&str, Reader); 2] = [
            (TRACE_SCHEMA, |p| read_trace(p).map(drop)),
            (FLIGHT_SCHEMA, |p| read_flight(p).map(drop)),
        ];
        let path = std::env::temp_dir()
            .join(format!("multiclust-jsonl-test-{}.jsonl", std::process::id()));
        let shown = path.display().to_string();
        for (case, with_meta, rest, expected) in rows {
            let errors: Vec<String> = readers
                .iter()
                .map(|(schema, read)| {
                    let meta = format!("{{\"type\":\"meta\",\"schema\":\"{schema}\"}}\n");
                    let head = if with_meta { meta.as_bytes() } else { b"" };
                    std::fs::write(&path, [head, rest].concat()).unwrap();
                    let err = read(&path).expect_err(case);
                    err.replace(schema, "{s}").replace(&shown, "{path}")
                })
                .collect();
            let _ = std::fs::remove_file(&path);
            assert!(errors[0].starts_with(expected), "{case}: {errors:?}, want {expected:?}");
            assert_eq!(errors[0], errors[1], "{case}: the readers disagree");
        }
    }
}
