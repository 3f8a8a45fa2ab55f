//! The four workloads. Their names are fixed: `BENCHMARK.json` and
//! later issues cite them.

mod durable_txn;
mod index_mix;
mod point_mix;
mod scan_query;

pub use durable_txn::DurableTxn;
pub use index_mix::IndexMix;
pub use point_mix::PointMix;
pub use scan_query::ScanQuery;

use crate::data::FleetModel;
use crate::harness::Targets;
use orion_core::{Oid, Value};

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 4] = ["point_mix", "durable_txn", "scan_query", "index_mix"];

/// Data-set and warm-up sizes are divided by this (`--smoke` uses 10).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    pub fn of(self, full: usize) -> usize {
        (full / self.0).max(4)
    }
}

/// What the fleet workloads offer the stage tables and layer probes.
fn fleet_targets(model: &FleetModel, objects: Vec<Oid>) -> Targets {
    Targets {
        objects,
        read_attr: "weight",
        ref_attr: "manufacturer",
        key_attr: "weight",
        // Far above every band a workload's checks read.
        key_value: |i| Value::Int(5_000_000 + (i % 1_000) as i64),
        query: "select v from Vehicle* v \
                where v.weight > 500 and v.manufacturer.location = \"Detroit\""
            .into(),
        root_class: "Vehicle",
        keys: model
            .vehicles
            .iter()
            .map(|v| Value::Int(v.weight))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::load_fleet;
    use crate::harness::Workload;
    use orion_core::Database;

    #[test]
    fn same_seed_same_request_stream() {
        let db = Database::open_in_memory();
        let w = PointMix::new(1990, Scale(10));
        let fleet = w.load(&db).unwrap();
        let again = PointMix::new(1990, Scale(10));
        assert_eq!(
            w.sample_requests(&fleet, 200),
            again.sample_requests(&fleet, 200)
        );
        let other = PointMix::new(1991, Scale(10));
        assert_ne!(
            w.sample_requests(&fleet, 200),
            other.sample_requests(&fleet, 200)
        );
        // Loading is deterministic too: a second database hands out the
        // same object identities in the same order.
        let twin = load_fleet(
            &Database::open_in_memory(),
            &crate::data::FleetModel::generate(1990, 1_200),
        )
        .unwrap();
        assert_eq!(twin.vehicles, fleet.vehicles);
    }

    #[test]
    fn scale_divides_but_never_to_nothing() {
        assert_eq!(Scale(1).of(12_000), 12_000);
        assert_eq!(Scale(10).of(12_000), 1_200);
        assert_eq!(Scale(10).of(8), 4);
    }
}
