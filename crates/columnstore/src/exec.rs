//! The bulk-processing execution context.
//!
//! `ExecContext` wraps the functional operators with (a) the pushdown
//! planner annotation and (b) operator-trace recording, so a query written
//! as a sequence of bulk operator calls is simultaneously *executed* (for
//! results) and *traced* (for the simulator's timing replay). This is the
//! operator-at-a-time, full-column style of the paper's in-house prototype.

use crate::error::PlanError;
use crate::ops::agg::{hash_group_by, AggSpec, GroupedResult};
use crate::ops::join::{anti_join, hash_join, semi_join};
use crate::ops::project::gather;
use crate::ops::scan::{scan, scan_at, ScanPredicate};
use crate::ops::sort::{sort_rows_by, Dir};
use crate::positions::PositionList;
use crate::pushdown::Planner;
use crate::table::Table;
use crate::trace::{OpTrace, TraceEvent};

/// A query execution context: planner + trace.
pub struct ExecContext {
    planner: Planner,
    trace: OpTrace,
}

impl ExecContext {
    /// A context with the given planner.
    pub fn new(planner: Planner) -> Self {
        ExecContext {
            planner,
            trace: OpTrace::new(),
        }
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &OpTrace {
        &self.trace
    }

    /// Consumes the context, returning the trace.
    pub fn into_trace(self) -> OpTrace {
        self.trace
    }

    /// Full-column select on `table.column`.
    ///
    /// # Errors
    /// [`PlanError::UnknownColumn`] if the table has no such column.
    pub fn select(
        &mut self,
        table: &Table,
        column: &str,
        predicate: ScanPredicate,
    ) -> Result<PositionList, PlanError> {
        let col = table.column(column)?;
        let out = scan(col, predicate);
        let implementation = self.planner.choose(col.len() as u64, predicate);
        self.trace.push(TraceEvent::Scan {
            table: table.name().to_owned(),
            column: column.to_owned(),
            rows: col.len() as u64,
            matches: out.len() as u64,
            bounds: predicate.bounds(),
            implementation,
        });
        Ok(out)
    }

    /// Conjunctive refinement: apply `predicate` to `column` only at
    /// `positions`.
    ///
    /// # Errors
    /// [`PlanError::UnknownColumn`] if the table has no such column.
    pub fn select_at(
        &mut self,
        table: &Table,
        column: &str,
        positions: &PositionList,
        predicate: ScanPredicate,
    ) -> Result<PositionList, PlanError> {
        let col = table.column(column)?;
        let out = scan_at(col, positions, predicate);
        self.trace.push(TraceEvent::ScanAt {
            table: table.name().to_owned(),
            column: column.to_owned(),
            positions: positions.len() as u64,
            matches: out.len() as u64,
        });
        Ok(out)
    }

    /// Project: gather `table.column` values at `positions`.
    ///
    /// # Errors
    /// [`PlanError::UnknownColumn`] if the table has no such column.
    pub fn project(
        &mut self,
        table: &Table,
        column: &str,
        positions: &PositionList,
    ) -> Result<Vec<i64>, PlanError> {
        let col = table.column(column)?;
        let out = gather(col, positions);
        self.trace.push(TraceEvent::Gather {
            table: table.name().to_owned(),
            column: column.to_owned(),
            positions: positions.len() as u64,
        });
        Ok(out)
    }

    /// Hash join of pre-gathered key vectors; returns `(build, probe)`
    /// index pairs into the inputs.
    ///
    /// # Errors
    /// [`PlanError::PositionOverflow`] when an input outgrows the `u32`
    /// position width.
    pub fn join(
        &mut self,
        build_keys: &[i64],
        probe_keys: &[i64],
    ) -> Result<Vec<(u32, u32)>, PlanError> {
        let out = hash_join(build_keys, probe_keys)?;
        self.trace.push(TraceEvent::HashBuild {
            rows: build_keys.len() as u64,
        });
        self.trace.push(TraceEvent::HashProbe {
            rows: probe_keys.len() as u64,
            matches: out.len() as u64,
        });
        Ok(out)
    }

    /// Semi-join (`EXISTS`): probe indices with a build match.
    ///
    /// # Errors
    /// [`PlanError::PositionOverflow`] when the probe input outgrows the
    /// `u32` position width.
    pub fn semi_join(
        &mut self,
        build_keys: &[i64],
        probe_keys: &[i64],
    ) -> Result<Vec<u32>, PlanError> {
        let out = semi_join(build_keys, probe_keys)?;
        self.trace.push(TraceEvent::HashBuild {
            rows: build_keys.len() as u64,
        });
        self.trace.push(TraceEvent::HashProbe {
            rows: probe_keys.len() as u64,
            matches: out.len() as u64,
        });
        Ok(out)
    }

    /// Anti-join (`NOT EXISTS`): probe indices without a build match.
    ///
    /// # Errors
    /// [`PlanError::PositionOverflow`] when the probe input outgrows the
    /// `u32` position width.
    pub fn anti_join(
        &mut self,
        build_keys: &[i64],
        probe_keys: &[i64],
    ) -> Result<Vec<u32>, PlanError> {
        let out = anti_join(build_keys, probe_keys)?;
        self.trace.push(TraceEvent::HashBuild {
            rows: build_keys.len() as u64,
        });
        self.trace.push(TraceEvent::HashProbe {
            rows: probe_keys.len() as u64,
            matches: out.len() as u64,
        });
        Ok(out)
    }

    /// Grouped aggregation.
    pub fn group_by(&mut self, group_cols: &[&[i64]], aggs: &[AggSpec<'_>]) -> GroupedResult {
        let rows = group_cols
            .first()
            .map(|c| c.len())
            .or_else(|| aggs.iter().map(|a| a.input.len()).max())
            .unwrap_or(0);
        let out = hash_group_by(group_cols, aggs);
        self.trace.push(TraceEvent::Aggregate {
            rows: rows as u64,
            groups: out.len() as u64,
            aggregates: aggs.len() as u64,
        });
        out
    }

    /// Sort: row order by keys.
    pub fn sort(&mut self, keys: &[(&[i64], Dir)]) -> Vec<u32> {
        let out = sort_rows_by(keys);
        self.trace.push(TraceEvent::Sort {
            rows: out.len() as u64,
        });
        out
    }

    /// Records a result materialization of `rows` × `columns`.
    pub fn materialize(&mut self, rows: u64, columns: u64) {
        self.trace.push(TraceEvent::Materialize { rows, columns });
    }

    /// Reusable helper: late-materialized select-project — select on one
    /// column, project others at the survivors.
    ///
    /// # Errors
    /// [`PlanError::UnknownColumn`] if any named column is absent.
    pub fn select_project(
        &mut self,
        table: &Table,
        select_col: &str,
        predicate: ScanPredicate,
        project_cols: &[&str],
    ) -> Result<(PositionList, Vec<Vec<i64>>), PlanError> {
        let positions = self.select(table, select_col, predicate)?;
        let projected = project_cols
            .iter()
            .map(|c| self.project(table, c, &positions))
            .collect::<Result<_, _>>()?;
        Ok((positions, projected))
    }
}

/// Re-export for query authors.
pub use crate::ops::scan::ScanPredicate as Pred;
/// Re-export for query authors.
pub use crate::ops::sort::Dir as SortDir;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::ops::agg::AggKind;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::int("k", vec![1, 2, 3, 4, 5, 6]),
                Column::int("v", vec![10, 20, 30, 40, 50, 60]),
                Column::int("g", vec![0, 1, 0, 1, 0, 1]),
            ],
        )
    }

    #[test]
    fn select_project_pipeline() {
        let t = table();
        let mut cx = ExecContext::new(Planner::default());
        let (pos, cols) = cx
            .select_project(&t, "k", Pred::Ge(4), &["v", "g"])
            .unwrap();
        assert_eq!(pos.as_slice(), &[3, 4, 5]);
        assert_eq!(cols[0], vec![40, 50, 60]);
        assert_eq!(cols[1], vec![1, 0, 1]);
        assert_eq!(cx.trace().len(), 3, "1 scan + 2 gathers");
    }

    #[test]
    fn select_at_refinement_traced() {
        let t = table();
        let mut cx = ExecContext::new(Planner::default());
        let first = cx.select(&t, "k", Pred::Ge(2)).unwrap();
        let refined = cx.select_at(&t, "g", &first, Pred::Eq(1)).unwrap();
        assert_eq!(refined.as_slice(), &[1, 3, 5]);
        assert_eq!(cx.trace().rows_scanned(), 6 + 5);
    }

    #[test]
    fn join_and_group_traced() {
        let t = table();
        let mut cx = ExecContext::new(Planner::default());
        let all: PositionList = (0..6u32).collect();
        let k = cx.project(&t, "k", &all).unwrap();
        let pairs = cx.join(&k, &[2, 4, 9]).unwrap();
        assert_eq!(pairs.len(), 2);
        let g = cx.project(&t, "g", &all).unwrap();
        let v = cx.project(&t, "v", &all).unwrap();
        let grouped = cx.group_by(
            &[&g],
            &[AggSpec {
                kind: AggKind::Sum,
                input: &v,
            }],
        );
        assert_eq!(grouped.len(), 2);
        let events = cx.trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::HashProbe { matches: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Aggregate { groups: 2, .. })));
    }

    #[test]
    fn pushdown_annotation_in_trace() {
        let t = Table::new("big", vec![Column::int("x", (0..10_000).collect())]);
        let mut cx = ExecContext::new(Planner::with_jafar());
        let pos = cx.select(&t, "x", Pred::Lt(100)).unwrap();
        assert_eq!(pos.len(), 100);
        assert_eq!(cx.trace().jafar_scans(), 1);
    }

    #[test]
    fn sort_traced() {
        let t = table();
        let mut cx = ExecContext::new(Planner::default());
        let all: PositionList = (0..6u32).collect();
        let v = cx.project(&t, "v", &all).unwrap();
        let order = cx.sort(&[(&v, SortDir::Desc)]);
        assert_eq!(order[0], 5);
        assert!(matches!(
            cx.trace().events().last(),
            Some(TraceEvent::Sort { rows: 6 })
        ));
    }
}
