//! The grouped delta finish: a single-table `GROUP BY` over a
//! delta-scanned table re-aggregates only the groups whose rows changed.
//!
//! A [`GroupTable`] is the finish stage's state beside a
//! [`DeltaTableScanner`](crate::delta::DeltaTableScanner). For every group
//! it holds its members' positions — (page ordinal in walk order, row on
//! the page) — and its output row. A pass compares the pages the scan
//! stage handed over ([`ScanRows::Pages`], the scanner cache's own `Arc`s,
//! read in place) with the previous pass's: a page whose row vector is the
//! same `Arc` is unchanged; every other page's old rows leave their groups
//! and its new rows join theirs. New pages are linked in right after the
//! root, so surviving pages move to later ordinals; their members are
//! remapped.
//! Only the groups so touched are re-folded, from their members in scan
//! order with the ordinary aggregate stage's accumulator ([`AggPlan`]), and
//! groups are emitted in the order of their first member. The output — the
//! rows, their order, and the representative row bare columns are read
//! from — is therefore `finish_select`'s over the same scan, byte for byte,
//! order-dependent `f64` sums and MIN/MAX ties between Integer and Real
//! included.
//!
//! Which statements: a `GROUP BY` without DISTINCT, DISTINCT aggregates,
//! ORDER BY or LIMIT ([`GroupTable::for_select`]), whose post-scan stages
//! the caller vouches are deterministic and the same at every snapshot.
//! When the scanner serves a scan it applies every conjunct, so the cached
//! page rows are the finish stage's whole input. A scan the scanner did not
//! serve runs the ordinary finish; a rebuilt scan, a page that left the
//! walk, surviving pages that changed order, or an error part-way through
//! a pass make a full build.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::{Expr, SelectItem, SelectStmt};
use crate::delta::ScanPages;
use crate::error::Result;
use crate::exec::{expand_items, finish_select, AggPlan, Groups, QueryResult, ScanRows, Scanned};
use crate::record::Row;
use crate::udf::UdfRegistry;
use crate::value::GroupKey;

/// One group of a [`GroupTable`].
#[derive(Default)]
struct Group {
    /// `(page ordinal, row on the page)` of every member, in scan order.
    members: Vec<(u32, u32)>,
    /// The output row; `None` when the group has no member or HAVING
    /// rejects it.
    out: Option<Row>,
}

/// The grouped delta finish's state for one statement (see the module
/// docs). Empty until its first pass, which is a full build.
#[derive(Default)]
pub struct GroupTable {
    /// The pages the groups describe.
    pages: ScanPages,
    groups: Vec<Group>,
    /// Every key seen since the last full build: a group that loses its
    /// last member keeps its slot, and comes back in it.
    index: HashMap<GroupKey, usize>,
}

impl GroupTable {
    /// An empty table for `select`, or `None` when its shape is not one
    /// the grouped finish serves: no `GROUP BY`, or DISTINCT, a DISTINCT
    /// aggregate, ORDER BY or LIMIT.
    pub fn for_select(select: &SelectStmt) -> Option<Self> {
        let distinct_agg = (select.items.iter())
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(&select.having)
            .any(Expr::contains_distinct_aggregate);
        let served = !select.group_by.is_empty()
            && !select.distinct
            && !distinct_agg
            && select.order_by.is_empty()
            && select.limit.is_none();
        served.then(Self::default)
    }

    /// Drop all state; the next pass is a full build.
    pub fn invalidate(&mut self) {
        *self = Self::default();
    }

    /// The finish stage of the table's statement `select` over `scanned`:
    /// through the table when a scanner served the scan (its pages are the
    /// scan's rows), otherwise `finish_select` itself, and the table is
    /// dropped.
    pub fn finish(
        &mut self,
        select: &SelectStmt,
        mut scanned: Scanned,
        udfs: &UdfRegistry,
    ) -> Result<QueryResult> {
        let started = Instant::now();
        let (pages, rebuilt) = match (&mut scanned.rows, &scanned.delta) {
            (ScanRows::Pages(pages), Some(delta)) => (std::mem::take(pages), delta.rebuilt),
            _ => {
                self.invalidate();
                return finish_select(select, scanned, udfs);
            }
        };
        let items = expand_items(&select.items, &scanned.written_bindings, &scanned.scope)?;
        let plan = AggPlan::compile(select, &items, &scanned.scope, udfs)?;
        if let Err(e) = self.pass(&plan, pages, rebuilt) {
            self.invalidate();
            return Err(e);
        }
        let rows = self.rows();
        let mut stats = scanned.stats;
        stats.eval += started.elapsed();
        stats.rows = rows.len() as u64;
        Ok(QueryResult {
            columns: plan.columns().to_vec(),
            rows,
            stats,
            plan: scanned.plan,
        })
    }

    /// Bring the groups up to `pages`: a delta pass when it can, else a
    /// full build.
    fn pass(&mut self, plan: &AggPlan, pages: ScanPages, rebuilt: bool) -> Result<()> {
        let delta = !rebuilt && !self.pages.is_empty() && self.delta(plan, &pages)?;
        // Emptied groups keep their slots; once they outnumber the live
        // ones, start over.
        let live = self.groups.iter().filter(|g| !g.members.is_empty());
        if !delta || 2 * live.count() < self.groups.len() {
            self.build(plan, &pages)?;
        }
        self.pages = pages;
        Ok(())
    }

    /// Group every row of `pages` afresh, in scan order.
    fn build(&mut self, plan: &AggPlan, pages: &ScanPages) -> Result<()> {
        self.invalidate();
        let mut acc = Groups::default();
        let mut members: Vec<Vec<(u32, u32)>> = Vec::new();
        for (o, (_, rows)) in pages.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                let g = acc.add(plan, Cow::Borrowed(row))?;
                if g == members.len() {
                    members.push(Vec::new());
                }
                members[g].push((o as u32, i as u32));
            }
        }
        for (state, members) in acc.states.iter().zip(members) {
            let out = plan.emit(state)?.map(|(_, row)| row);
            self.groups.push(Group { members, out });
        }
        self.index = acc.index;
        Ok(())
    }

    /// Move the groups from the previous pass's pages to `pages` and
    /// re-fold every group a changed page touches. `false`, with nothing
    /// changed yet, when the previous walk's pages are not all still
    /// there in the same order.
    fn delta(&mut self, plan: &AggPlan, pages: &ScanPages) -> Result<bool> {
        let now: HashMap<u64, u32> = (pages.iter().enumerate())
            .map(|(o, (pid, _))| (*pid, o as u32))
            .collect();
        // Each previous ordinal's new one, and each new page's old rows.
        let mut remap = Vec::with_capacity(self.pages.len());
        let mut was: Vec<Option<&Arc<Vec<Row>>>> = vec![None; pages.len()];
        for (pid, rows) in &self.pages {
            match now.get(pid) {
                Some(&o) if remap.last().is_none_or(|&last| last < o) => {
                    remap.push(o);
                    was[o as usize] = Some(rows);
                }
                _ => return Ok(false),
            }
        }
        let changed: Vec<bool> = (pages.iter().zip(&was))
            .map(|((_, rows), was)| !was.is_some_and(|w| Arc::ptr_eq(w, rows)))
            .collect();
        let mut touched = vec![false; self.groups.len()];
        for (was, _) in was.iter().zip(&changed).filter(|(_, c)| **c) {
            for row in was.iter().flat_map(|rows| rows.iter()) {
                let Some(&g) = self.index.get(&plan.key(row)?) else {
                    return Ok(false);
                };
                touched[g] = true;
            }
        }
        if remap.iter().enumerate().any(|(i, &o)| i as u32 != o) {
            for m in self.groups.iter_mut().flat_map(|g| &mut g.members) {
                m.0 = remap[m.0 as usize];
            }
        }
        for (group, _) in self.groups.iter_mut().zip(&touched).filter(|(_, t)| **t) {
            group.members.retain(|m| !changed[m.0 as usize]);
        }
        for (o, (_, rows)) in pages.iter().enumerate().filter(|(o, _)| changed[*o]) {
            for (i, row) in rows.iter().enumerate() {
                let key = plan.key(row)?;
                let g = match self.index.get(&key) {
                    Some(&g) => g,
                    None => {
                        self.index.insert(key, self.groups.len());
                        self.groups.push(Group::default());
                        touched.push(false);
                        self.groups.len() - 1
                    }
                };
                touched[g] = true;
                self.groups[g].members.push((o as u32, i as u32));
            }
        }
        let row = |&(o, i): &(u32, u32)| &pages[o as usize].1[i as usize];
        for (group, _) in self.groups.iter_mut().zip(&touched).filter(|(_, t)| **t) {
            group.members.sort_unstable();
            group.out = match group.members.first() {
                None => None,
                Some(first) => {
                    let mut state = plan.state();
                    for m in &group.members {
                        plan.update(&mut state, row(m))?;
                    }
                    state.representative = row(first).clone();
                    plan.emit(&state)?.map(|(_, out)| out)
                }
            };
        }
        Ok(true)
    }

    /// The groups' output rows, in the order of their first member.
    fn rows(&self) -> Vec<Row> {
        let mut order: Vec<((u32, u32), usize)> = (self.groups.iter().enumerate())
            .filter(|(_, group)| group.out.is_some())
            .filter_map(|(g, group)| Some((*group.members.first()?, g)))
            .collect();
        order.sort_unstable();
        (order.iter())
            .filter_map(|&(_, g)| self.groups[g].out.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    #[test]
    fn only_plain_group_by_shapes_get_a_table() {
        for (sql, served) in [
            ("SELECT g, SUM(v) FROM t GROUP BY g HAVING MAX(v) > 1", true),
            ("SELECT SUM(v) FROM t", false),
            ("SELECT DISTINCT g, SUM(v) FROM t GROUP BY g", false),
            ("SELECT g, COUNT(DISTINCT v) + 1 FROM t GROUP BY g", false),
            (
                "SELECT g FROM t GROUP BY g HAVING SUM(DISTINCT v) > 1",
                false,
            ),
            ("SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g", false),
            ("SELECT g, SUM(v) FROM t GROUP BY g LIMIT 3", false),
        ] {
            let select = parse_select(sql).unwrap();
            assert_eq!(GroupTable::for_select(&select).is_some(), served, "{sql}");
        }
    }
}
