//! `firesim-top` — a terminal dashboard for the live NDJSON run feed.
//!
//! Consumes the versioned wire format of DESIGN §17 from stdin, a file,
//! or a Unix/TCP socket (e.g. the `simd` daemon's serve endpoint) and
//! renders sim-rate, per-agent load spread, link/switch health, and the
//! fault/recovery event timeline live. `--once` renders a single final
//! frame after the stream ends (CI- and pipe-friendly); `--normalize`
//! skips rendering entirely and re-emits the stream with host-dependent
//! fields zeroed — the golden-fixture transform.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;

use firesim_manager::stream::{
    normalize_line, EventRecord, IntervalRecord, RunEndRecord, RunStartRecord, StreamRecord,
};

const USAGE: &str = "\
firesim-top — live dashboard for the FireSim NDJSON run feed

USAGE:
    firesim-top [OPTIONS]

OPTIONS:
    --from SPEC     Stream source: '-' for stdin, tcp:HOST:PORT or
                    unix:PATH to connect, anything else a file [default: -]
    --once          Consume the whole stream, render one final frame, exit
    --normalize     Re-emit the stream on stdout with host-dependent
                    fields (wall_ns, host_ns) zeroed; no dashboard
    -h, --help      Print this help
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn open_source(spec: &str) -> Box<dyn Read> {
    if spec == "-" {
        Box::new(std::io::stdin())
    } else if let Some(addr) = spec.strip_prefix("tcp:") {
        Box::new(
            std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| die(&format!("connecting to tcp:{addr}: {e}"))),
        )
    } else if let Some(path) = spec.strip_prefix("unix:") {
        Box::new(
            std::os::unix::net::UnixStream::connect(path)
                .unwrap_or_else(|e| die(&format!("connecting to unix:{path}: {e}"))),
        )
    } else {
        let path = PathBuf::from(spec);
        Box::new(
            std::fs::File::open(&path)
                .unwrap_or_else(|e| die(&format!("opening {}: {e}", path.display()))),
        )
    }
}

/// Everything the dashboard knows about the run so far.
#[derive(Default)]
struct Dash {
    start: Option<RunStartRecord>,
    last: Option<IntervalRecord>,
    /// Cumulative per-agent (cycles, retired, host_ns), stream order.
    totals: Vec<(String, u64, u64, u64)>,
    events: Vec<EventRecord>,
    end: Option<RunEndRecord>,
}

impl Dash {
    fn absorb(&mut self, rec: StreamRecord) {
        match rec {
            StreamRecord::RunStart(r) => self.start = Some(r),
            StreamRecord::Interval(r) => {
                for a in &r.agents {
                    match self.totals.iter_mut().find(|(n, ..)| n == &a.name) {
                        Some(t) => {
                            t.1 += a.d_cycles;
                            t.2 += a.d_retired;
                            t.3 += a.host_ns;
                        }
                        None => {
                            self.totals
                                .push((a.name.clone(), a.d_cycles, a.d_retired, a.host_ns))
                        }
                    }
                }
                self.last = Some(r);
            }
            StreamRecord::Event(r) => self.events.push(r),
            StreamRecord::RunEnd(r) => self.end = Some(r),
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };

        if let Some(s) = &self.start {
            let target = s.target_cycles.max(1);
            let cycle = self.last.as_ref().map_or(0, |i| i.cycle);
            let pct = (cycle.min(target) * 100) / target;
            push(
                &mut out,
                format!(
                    "run {spec}  {workers}w{transport}  cycle {cycle}/{target} ({pct}%)  {bar}",
                    spec = s.spec,
                    workers = s.workers,
                    transport = s
                        .transport
                        .as_deref()
                        .map(|t| format!(" over {t}"))
                        .unwrap_or_default(),
                    bar = hbar(pct, 100, 24),
                ),
            );
        }
        if let Some(i) = &self.last {
            let rate = if i.wall_ns > 0 {
                format!(
                    "{:.2} MHz sim-rate",
                    i.d_cycles as f64 * 1e3 / i.wall_ns as f64
                )
            } else {
                "rate n/a".to_owned()
            };
            push(
                &mut out,
                format!("interval #{}: +{} cycles, {rate}", i.seq, i.d_cycles),
            );

            // Per-agent load spread: host-ns share is where the host
            // time actually went; retired/wall is live MIPS.
            let host_total: u64 = i.agents.iter().map(|a| a.host_ns).sum();
            push(&mut out, "  agent              load  mips".to_owned());
            for a in &i.agents {
                let mips = if i.wall_ns > 0 {
                    format!("{:.1}", a.d_retired as f64 * 1e3 / i.wall_ns as f64)
                } else {
                    "-".to_owned()
                };
                push(
                    &mut out,
                    format!(
                        "  {:<18} {} {mips}",
                        a.name,
                        hbar(a.host_ns, host_total.max(1), 10),
                    ),
                );
            }
            let tokens: u64 = i.links.iter().map(|l| l.in_flight_tokens).sum();
            push(
                &mut out,
                format!(
                    "  links: {} carrying {tokens} tokens in flight",
                    i.links.len()
                ),
            );
            for s in &i.switches {
                push(
                    &mut out,
                    format!(
                        "  switch {:<12} highwater {}B  +{} fwd  +{} drops",
                        s.name, s.highwater, s.d_forwarded, s.d_drops
                    ),
                );
            }
        }
        if !self.events.is_empty() {
            push(&mut out, "recent events:".to_owned());
            for e in self.events.iter().rev().take(8).rev() {
                push(
                    &mut out,
                    format!("  @{:<12} {:<12} {}", e.cycle, e.kind, e.label),
                );
            }
        }
        if let Some(e) = &self.end {
            push(
                &mut out,
                format!(
                    "run ended at cycle {} after {} intervals ({})",
                    e.cycle,
                    e.intervals,
                    if e.done {
                        "all agents done"
                    } else {
                        "horizon reached"
                    }
                ),
            );
        }
        out
    }
}

/// A `##--------`-style horizontal bar of `width` cells.
fn hbar(value: u64, max: u64, width: u64) -> String {
    let filled = (value.min(max) * width) / max.max(1);
    let mut bar = String::from("[");
    for i in 0..width {
        bar.push(if i < filled { '#' } else { '-' });
    }
    bar.push(']');
    bar
}

fn main() {
    let mut from = "-".to_owned();
    let mut once = false;
    let mut normalize = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--from" => from = args.next().unwrap_or_else(|| die("--from needs a SPEC")),
            "--once" => once = true,
            "--normalize" => normalize = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let reader = BufReader::new(open_source(&from));
    let mut dash = Dash::default();
    let mut bad = 0u64;
    for line in reader.lines() {
        let line = match line {
            Ok(l) if l.trim().is_empty() => continue,
            Ok(l) => l,
            Err(_) => break,
        };
        if normalize {
            match normalize_line(&line) {
                Ok(norm) => println!("{norm}"),
                Err(e) => {
                    eprintln!("firesim-top: skipping invalid record: {e}");
                    bad += 1;
                }
            }
            continue;
        }
        match StreamRecord::parse(&line) {
            Ok(rec) => {
                let live_frame = !once && matches!(rec, StreamRecord::Interval(_));
                dash.absorb(rec);
                if live_frame {
                    // Clear screen + home, then one full frame.
                    print!("\x1b[2J\x1b[H{}", dash.render());
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
            }
            Err(e) => {
                eprintln!("firesim-top: skipping invalid record: {e}");
                bad += 1;
            }
        }
    }
    if !normalize {
        print!("{}", dash.render());
    }
    if bad > 0 {
        std::process::exit(1);
    }
}
