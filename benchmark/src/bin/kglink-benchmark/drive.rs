//! Load generation: closed and open loops over a running service, and the
//! checks every returned annotation must pass.

use crate::stats::{median, quantile, ratio, sorted};
use kglink_core::DegradationRung;
use kglink_serve::{Annotation, AnnotationService, ServiceError};
use kglink_table::{LabelId, Table};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request that came back.
pub struct Sample {
    /// Index into the workload's table list.
    pub table: usize,
    /// Closed loop: submit → labels returned. Open loop: due time →
    /// ticket resolved, so a stall is charged to the requests behind it.
    pub latency_us: f64,
    /// Window open → this request came back, microseconds.
    pub done_us: f64,
    pub queue_us: u64,
    pub labels: Vec<LabelId>,
    /// Arity, rung, expiry and failed-cell checks all passed.
    pub ok: bool,
}

/// Everything one window observed.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Requests sent, including refused ones.
    pub attempted: u64,
    /// Refused at admission (`Overloaded`).
    pub rejected: u64,
    /// Any other `ServiceError`.
    pub errors: u64,
    /// Window open → last completion, seconds.
    pub elapsed_s: f64,
    /// Open loop: how late each send was, microseconds.
    pub late_us: Vec<f64>,
}

/// The service must answer at full quality: one label per column, not
/// expired, rung `Full`, no failed cell, no degraded column.
fn check(annotation: &Annotation, table: &Table) -> bool {
    annotation.labels.len() == table.n_cols()
        && !annotation.expired
        && annotation.rung == DegradationRung::Full
        && annotation.failed_cells == 0
        && annotation.degraded_columns == 0
}

fn sample(
    table: usize,
    input: &Table,
    annotation: Annotation,
    latency: Duration,
    done: Duration,
) -> Sample {
    Sample {
        table,
        latency_us: latency.as_secs_f64() * 1e6,
        done_us: done.as_secs_f64() * 1e6,
        queue_us: annotation.queue_us,
        ok: check(&annotation, input),
        labels: annotation.labels,
    }
}

/// Annotate and discard `tables` (at most a queue's worth at a time is
/// in flight: callers pass fewer tables than the queue holds).
pub fn warm_up(service: &AnnotationService, tables: &[Table]) {
    for ticket in service
        .submit_batch(tables.iter().cloned())
        .into_iter()
        .flatten()
    {
        let _ = ticket.wait();
    }
}

/// Hands out table indices to the passes of one run, so that a table that
/// must not repeat is offered once across all of them.
pub struct Cursor {
    next: AtomicUsize,
    len: usize,
    reusable: bool,
}

impl Cursor {
    pub fn new(start: usize, len: usize, reusable: bool) -> Self {
        Cursor {
            next: AtomicUsize::new(start),
            len,
            reusable,
        }
    }

    /// Take the next `n` indices at once (fewer if the tables run out).
    pub fn reserve(&self, n: usize) -> std::ops::Range<usize> {
        let start = self.next.fetch_add(n, Ordering::Relaxed).min(self.len);
        start..(start + n).min(self.len)
    }

    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if self.reusable {
            Some(i % self.len)
        } else {
            (i < self.len).then_some(i)
        }
    }
}

/// `clients` threads each send their next table when the previous one
/// returned, for `seconds` or until the cursor runs out of tables.
pub fn closed_loop(
    service: &AnnotationService,
    tables: &[Table],
    cursor: &Cursor,
    clients: usize,
    seconds: f64,
) -> Window {
    let out = Mutex::new(Window::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Window::default();
                let mut last_done = start;
                while start.elapsed().as_secs_f64() < seconds {
                    let Some(i) = cursor.take() else { break };
                    let request = tables[i].clone();
                    mine.attempted += 1;
                    let sent = Instant::now();
                    match service.annotate(request) {
                        Ok(a) => {
                            last_done = Instant::now();
                            mine.samples.push(sample(
                                i,
                                &tables[i],
                                a,
                                last_done - sent,
                                last_done - start,
                            ));
                        }
                        Err(ServiceError::Overloaded { .. }) => mine.rejected += 1,
                        Err(_) => mine.errors += 1,
                    }
                }
                let mut all = out.lock().expect("no client panics while holding the lock");
                all.samples.append(&mut mine.samples);
                all.attempted += mine.attempted;
                all.rejected += mine.rejected;
                all.errors += mine.errors;
                all.elapsed_s = all.elapsed_s.max((last_done - start).as_secs_f64());
            });
        }
    });
    out.into_inner().expect("all clients joined")
}

/// Send the tables of `range` at their due times (`due_us[k]` for the
/// k-th of them) whatever the service is doing. Each
/// ticket gets a waiter thread of its own, so completion is stamped when
/// the ticket resolves, not when a collector reaches it; waiters block
/// and are not load.
pub fn open_loop(
    service: &AnnotationService,
    tables: &[Table],
    range: std::ops::Range<usize>,
    due_us: &[u64],
) -> Window {
    let out = Mutex::new(Window::default());
    let attempted = range.len() as u64;
    let mut late_us = Vec::with_capacity(range.len());
    let (mut rejected, mut errors) = (0u64, 0u64);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, due_us) in range.zip(due_us) {
            let table = &tables[i];
            let request = table.clone();
            let due = start + Duration::from_micros(*due_us);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            match service.submit(request) {
                Ok(ticket) => {
                    let out = &out;
                    scope.spawn(move || {
                        let result = ticket.wait();
                        let done = Instant::now();
                        let mut all = out.lock().expect("no waiter panics while holding the lock");
                        all.elapsed_s = all.elapsed_s.max((done - start).as_secs_f64());
                        match result {
                            Ok(a) => {
                                all.samples
                                    .push(sample(i, table, a, done - due, done - start))
                            }
                            Err(_) => all.errors += 1,
                        }
                    });
                }
                Err(ServiceError::Overloaded { .. }) => rejected += 1,
                Err(_) => errors += 1,
            }
        }
    });
    let mut window = out.into_inner().expect("all waiters joined");
    window.attempted = attempted;
    window.rejected = rejected;
    window.errors += errors;
    window.late_us = late_us;
    window
}

impl Window {
    /// Requests that did not come back with a full-quality answer.
    pub fn failed(&self) -> u64 {
        self.rejected + self.errors + self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Ascending latencies of the requests that came back, milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.latency_us / 1e3).collect();
        sorted(&mut v);
        v
    }

    /// Correctly annotated columns per second of window.
    pub fn cols_per_s(&self) -> f64 {
        let cols: usize = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.labels.len())
            .sum();
        ratio(cols as f64, self.elapsed_s)
    }

    /// [`cols_per_s`](Self::cols_per_s) of a closed loop, made robust
    /// against a stall of the machine: the completions are cut into ten
    /// runs of equal count, each run gives a rate over the time it took,
    /// and the median rate is reported. Not for open loops, where the time
    /// between completions is set by the schedule.
    pub fn median_cols_per_s(&self) -> f64 {
        const RUNS: usize = 10;
        let mut done: Vec<(f64, usize)> = self
            .samples
            .iter()
            .map(|s| (s.done_us, if s.ok { s.labels.len() } else { 0 }))
            .collect();
        if done.len() < 2 * RUNS {
            return self.cols_per_s();
        }
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut from_us = 0.0;
        let mut rates: Vec<f64> = (0..RUNS)
            .map(|r| {
                let run = &done[r * done.len() / RUNS..(r + 1) * done.len() / RUNS];
                let until_us = run[run.len() - 1].0;
                let cols: usize = run.iter().map(|&(_, cols)| cols).sum();
                let rate = ratio(cols as f64 * 1e6, until_us - from_us);
                from_us = until_us;
                rate
            })
            .collect();
        median(&mut rates)
    }

    /// Share of requests *sent* that came back correct within `limit_ms`.
    pub fn slo_met_share(&self, limit_ms: f64) -> f64 {
        let met = self
            .samples
            .iter()
            .filter(|s| s.ok && s.latency_us / 1e3 <= limit_ms)
            .count();
        ratio(met as f64, self.attempted as f64)
    }

    pub fn queue_wait_us(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.queue_us as f64).collect();
        quantile(sorted(&mut v), q)
    }
}
