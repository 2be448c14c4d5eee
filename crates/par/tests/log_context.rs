//! Pool workers inherit the submitting thread's `dpr_telemetry::log` correlation
//! context: a record emitted inside a mapped function carries the
//! submitter's `job_id` no matter which pool thread ran it.

use dpr_telemetry::log::{FieldValue, LogSink, Record};
use parking_lot::Mutex;
use std::sync::Arc;

struct Collect(Mutex<Vec<Arc<Record>>>);

impl LogSink for Collect {
    fn record(&self, record: &Arc<Record>) {
        self.0.lock().push(Arc::clone(record));
    }
}

#[test]
fn pool_workers_inherit_submitter_context() {
    let tap = Arc::new(Collect(Mutex::new(Vec::new())));
    let tap_id = dpr_telemetry::log::add_sink(Arc::clone(&tap) as Arc<dyn LogSink>);

    let pool = dpr_par::Pool::new(4);
    let _ctx = dpr_telemetry::log::push_context("job_id", "job-000042");
    let items: Vec<u64> = (0..64).collect();
    let out = pool.par_map(&items, |&x| {
        dpr_telemetry::log::info("par.test", "mapped", &[("x", FieldValue::U64(x))]);
        x * 2
    });
    dpr_telemetry::log::remove_sink(tap_id);

    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    let records = tap.0.lock();
    let mapped: Vec<&Arc<Record>> = records
        .iter()
        .filter(|r| r.target == "par.test")
        .collect();
    assert_eq!(mapped.len(), items.len());
    for record in mapped {
        assert_eq!(
            record.field("job_id"),
            Some(&FieldValue::Str("job-000042".into())),
            "record lost its inherited context: {record:?}"
        );
    }
}
