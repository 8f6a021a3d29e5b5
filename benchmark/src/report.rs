//! Result output: the one-line JSON object the driver reads, the full
//! result document (`out/result-*.json`, `--out`) that `--compare` reads,
//! and the table for people.

use crate::harness::{host_stanza, Ctx, Outcome};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::trace::{totals_by_name, Span};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

pub struct Run<'a> {
    ctx: &'a Ctx,
    outcome: &'a Outcome,
    host: Vec<(&'static str, String)>,
    /// `(span name, count, total ms, self ms)`.
    span_totals: Vec<(&'static str, u64, f64, f64)>,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as measured, with all its digits (`{}` on f64 prints the
/// shortest text that parses back to the same value). Non-finite values
/// have no JSON form; they read as 0 and the run's table shows them.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_entry(m: &Metric, value: f64) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json_string(m.name),
        json_number(value),
        json_string(m.unit)
    )
}

impl<'a> Run<'a> {
    pub fn new(ctx: &'a Ctx, outcome: &'a Outcome, spans: &[Span], wall_s: f64) -> Run<'a> {
        let span_totals = totals_by_name(spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                )
            })
            .collect();
        Run {
            ctx,
            outcome,
            host: host_stanza(ctx.seed, wall_s),
            span_totals,
        }
    }

    /// The metrics this kind of run must print.
    fn listed(&self) -> &'static [Metric] {
        if self.ctx.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The driver's line, or the name of an end-to-end metric the run has
    /// no value for. A per-layer metric that does not apply to the
    /// workload reads 0.
    pub fn driver_line(&self) -> Result<String, &'static str> {
        let mut entries = Vec::new();
        for m in self.listed() {
            let value = match self.outcome.metrics.get(m.name) {
                Some(&v) => v,
                None if self.ctx.trace => 0.0,
                None => return Err(m.name),
            };
            entries.push(metric_entry(m, value));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.outcome.correct(),
            self.outcome.attempted.max(1),
            self.outcome.failed,
            entries.join(",")
        ))
    }

    /// Everything the run knows, on one line.
    pub fn document(&self) -> String {
        let o = self.outcome;
        let all = END_TO_END.iter().chain(PER_LAYER);
        let metrics: Vec<String> = all
            .filter_map(|m| o.metrics.get(m.name).map(|&v| metric_entry(m, v)))
            .collect();
        let pairs = |items: &mut dyn Iterator<Item = (&str, &String)>| -> String {
            items
                .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let spans: Vec<String> = self
            .span_totals
            .iter()
            .map(|(name, count, total, own)| {
                format!(
                    "{}:{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
                    json_string(name),
                    json_number(*total),
                    json_number(*own)
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"trace\":{},\"seconds\":{},\"quick\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"host\":{{{}}},\"notes\":{{{}}},\"metrics\":{{{}}},\"spans\":{{{}}}}}",
            json_string(self.ctx.workload),
            u8::from(self.ctx.trace),
            json_number(self.ctx.seconds),
            self.ctx.scale.quick,
            o.correct(),
            o.attempted.max(1),
            o.failed,
            json_number(o.failed as f64 / o.attempted.max(1) as f64),
            pairs(&mut self.host.iter().map(|(k, v)| (*k, v))),
            pairs(&mut o.notes.iter().map(|(k, v)| (*k, v))),
            metrics.join(","),
            spans.join(","),
        )
    }

    /// Every metric by name with its unit, on standard error.
    pub fn print_table(&self) {
        let o = self.outcome;
        let mut t = String::new();
        writeln!(
            t,
            "== {} (seed {}, {} s, trace {}) correct={} attempted={} failed={}",
            self.ctx.workload,
            self.ctx.seed,
            self.ctx.seconds,
            u8::from(self.ctx.trace),
            o.correct(),
            o.attempted,
            o.failed
        )
        .expect("writing to a String");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            match o.metrics.get(m.name) {
                Some(v) => writeln!(t, "  {:<46} {:>16.4} {}", m.name, v, m.unit),
                None if self.listed().contains(m) => {
                    writeln!(t, "  {:<46} {:>16} {}", m.name, "n/a", m.unit)
                }
                None => Ok(()),
            }
            .expect("writing to a String");
        }
        for (k, v) in &o.notes {
            writeln!(t, "  # {k}: {v}").expect("writing to a String");
        }
        for (k, v) in &self.host {
            writeln!(t, "  # host.{k}: {v}").expect("writing to a String");
        }
        if !self.span_totals.is_empty() {
            writeln!(t, "  # spans: name count total_ms self_ms").expect("writing to a String");
            for (name, count, total, own) in &self.span_totals {
                writeln!(t, "  #   {name:<34} {count:>8} {total:>12.2} {own:>12.2}")
                    .expect("writing to a String");
            }
        }
        eprint!("{t}");
    }
}

pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "0");
        let m = Metric {
            name: "x.y",
            unit: "ms",
            higher: false,
            bound: 0.0,
        };
        let text = format!("{{{}}}", metric_entry(&m, 0.1 + 0.2));
        let parsed = plsh::server::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("x.y").unwrap().get("value").unwrap().as_f64(),
            Some(0.1 + 0.2)
        );
    }
}
