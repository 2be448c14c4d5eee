//! `dpr-bench top`: a terminal dashboard over `GET /metrics/history`.
//!
//! Polls a running service's sampled series document and renders the
//! SLO burn-rate table, per-counter rate sparklines, gauge levels, and
//! the sliding-window latency quantiles — a `top(1)` for the analysis
//! service, no scrape stack required.

use dpr_obs::series::{History, SloStatus, WindowPoint};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Points of history a sparkline compresses into one row.
const SPARK_POINTS: usize = 32;

/// Fetches and parses one `/metrics/history` document.
pub fn fetch_history(addr: &str) -> Result<History, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("configuring {addr}: {e}"))?;
    let request =
        format!("GET /metrics/history HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    let mut response = Vec::new();
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.read_to_end(&mut response).map(|_| ()))
        .map_err(|e| format!("talking to {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr} sent no HTTP response"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "/metrics/history answered: {}",
            head.lines().next().unwrap_or(head)
        ));
    }
    dpr_telemetry::json::from_str(body).map_err(|e| format!("bad history payload: {e}"))
}

/// Renders a slice of samples as a unicode sparkline, scaled to the
/// slice's own maximum (an all-zero window renders as all-baseline).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                let at = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[at.min(BARS.len() - 1)]
            }
        })
        .collect()
}

fn slo_line(slo: &SloStatus) -> String {
    format!(
        "  {:<18} {:<8} short {:>7.2}x  long {:>7.2}x  budget {:>6.3}  {}\n",
        slo.slug, slo.state, slo.short_burn, slo.long_burn, slo.budget, slo.detail
    )
}

fn quantile_line(name: &str, series: &[WindowPoint]) -> String {
    let last = series.last().cloned().unwrap_or(WindowPoint {
        t_ms: 0,
        count: 0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
    });
    let p99s: Vec<f64> = series
        .iter()
        .rev()
        .take(SPARK_POINTS)
        .rev()
        .map(|p| p.p99)
        .collect();
    format!(
        "  {:<28} {:>6} obs  p50 {:>9.0}  p95 {:>9.0}  p99 {:>9.0}  {}\n",
        name,
        last.count,
        last.p50,
        last.p95,
        last.p99,
        sparkline(&p99s)
    )
}

/// Renders one history document as the full dashboard screen.
pub fn render(addr: &str, history: &History) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "dpr-bench top — http://{addr}  ({} sample(s), every {}ms, keeping {})\n",
        history.samples, history.interval_ms, history.capacity
    ));
    if history.slos.is_empty() {
        out.push_str("\nslos: none configured\n");
    } else {
        out.push_str("\nslos:\n");
        for slo in &history.slos {
            out.push_str(&slo_line(slo));
        }
    }
    if !history.counters.is_empty() {
        out.push_str("\nrates (per second):\n");
        for (name, series) in &history.counters {
            let rates: Vec<f64> = series
                .iter()
                .rev()
                .take(SPARK_POINTS)
                .rev()
                .map(|p| p.rate)
                .collect();
            let now = series.last().map(|p| p.rate).unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<28} {:>9.1}/s  {}\n",
                name,
                now,
                sparkline(&rates)
            ));
        }
    }
    if !history.gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for (name, series) in &history.gauges {
            let levels: Vec<f64> = series
                .iter()
                .rev()
                .take(SPARK_POINTS)
                .rev()
                .map(|p| p.value as f64)
                .collect();
            let now = series.last().map(|p| p.value).unwrap_or(0);
            out.push_str(&format!(
                "  {:<28} {:>11}  {}\n",
                name,
                now,
                sparkline(&levels)
            ));
        }
    }
    if !history.histograms.is_empty() {
        out.push_str("\nwindow quantiles (last window, p99 sparkline):\n");
        for (name, series) in &history.histograms {
            out.push_str(&quantile_line(name, series));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_obs::series::{GaugePoint, RatePoint};

    #[test]
    fn sparkline_scales_to_the_window_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'), "{line}");
    }

    #[test]
    fn render_covers_every_series_family() {
        let mut history = History {
            interval_ms: 250,
            capacity: 64,
            samples: 3,
            ..Default::default()
        };
        history.counters.insert(
            "http.jobs.status.202".to_string(),
            vec![RatePoint {
                t_ms: 250,
                delta: 5,
                rate: 20.0,
            }],
        );
        history.gauges.insert(
            "jobs.queue_depth".to_string(),
            vec![GaugePoint { t_ms: 250, value: 3 }],
        );
        history.histograms.insert(
            "http.jobs.latency_us".to_string(),
            vec![WindowPoint {
                t_ms: 250,
                count: 5,
                p50: 80.0,
                p95: 400.0,
                p99: 900.0,
            }],
        );
        history.slos.push(SloStatus {
            slug: "http_errors".to_string(),
            state: "ok".to_string(),
            short_burn: 0.0,
            long_burn: 0.0,
            budget: 0.01,
            detail: "0 bad / 5 total".to_string(),
        });
        let screen = render("127.0.0.1:8080", &history);
        for needle in [
            "http_errors",
            "http.jobs.status.202",
            "jobs.queue_depth",
            "http.jobs.latency_us",
            "p99",
        ] {
            assert!(screen.contains(needle), "{needle} missing from:\n{screen}");
        }
    }
}
