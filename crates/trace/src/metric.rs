//! The metric table: every counter and gauge a registry exports is
//! declared once, in a [`metric_table!`](crate::metric_table) that names
//! it, classifies it and fixes its position. From that one list the
//! macro derives the live registry (one [`Counter`](crate::Counter) per
//! field), its `Copy` snapshot with the same named `u64` fields, and the
//! [`Section`] every renderer walks:
//!
//! * [`render_text`] — `name value` lines (the `METRICS` verb);
//! * [`render_json`] — one flat JSON object (`METRICS --json`);
//! * [`TextBuilder::section`](crate::TextBuilder::section) — the
//!   Prometheus exposition (`/metrics`).
//!
//! A field renders as its section's prefix plus its own name. The
//! exposition adds the `rql_` namespace, a `_total` suffix on counters
//! and the HELP line `"<section help>: <name>."`. Declaration order is
//! wire order: dashboards key on it, so new fields go at the end.

use std::fmt::{Display, Write as _};

/// How a scraper should treat a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows; exported with a `_total` suffix.
    Counter,
    /// A level that may go down.
    Gauge,
}

/// One registry's fields, in wire order.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Prepended to every field name (`io_`, `memo_`, …; empty for the
    /// server's own counters).
    pub prefix: &'static str,
    /// What the section measures; the start of every field's HELP line.
    pub help: &'static str,
    /// Name and kind of each field.
    pub fields: &'static [(&'static str, Kind)],
}

/// One section's values at one instant, aligned with its fields.
pub type Sample<'a> = (&'a Section, Vec<u64>);

/// Every field of `samples`, in order, as its prefixed name and value.
pub fn entries<'a>(samples: &'a [Sample<'a>]) -> impl Iterator<Item = (String, u64)> + 'a {
    samples.iter().flat_map(|(section, values)| {
        section
            .fields
            .iter()
            .zip(values)
            .map(move |((name, _), value)| (format!("{}{name}", section.prefix), *value))
    })
}

/// `name value`, one line per entry.
pub fn render_text<N: Display, V: Display>(entries: impl IntoIterator<Item = (N, V)>) -> String {
    let mut out = String::new();
    for (name, value) in entries {
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

/// One flat JSON object. Names are identifiers and values numbers, so
/// nothing needs escaping.
pub fn render_json<N: Display, V: Display>(entries: impl IntoIterator<Item = (N, V)>) -> String {
    let members: Vec<String> = entries
        .into_iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Declare a registry's metrics once.
///
/// ```
/// rql_trace::metric_table! {
///     /// Live counters, bumped on the hot path.
///     pub struct CacheStats => // extra non-table fields may follow in `{ … }`
///     /// Point-in-time copy of [`CacheStats`].
///     pub struct CacheStatsSnapshot("cache_", "Buffer cache") {
///         /// Lookups served from memory.
///         hits: Counter,
///         /// Pages resident right now.
///         resident: Gauge,
///     }
/// }
///
/// let live = CacheStats::new();
/// live.hits.add(3);
/// live.resident.set(7);
/// let snap = live.snapshot();
/// assert_eq!((snap.hits, snap.resident), (3, 7));
/// let samples = [snap.sample()];
/// let text = rql_trace::metric::render_text(rql_trace::metric::entries(&samples));
/// assert_eq!(text, "cache_hits 3\ncache_resident 7\n");
/// ```
///
/// The live struct holds one public [`Counter`](crate::Counter) per field
/// (plus any extra fields in braces after its name) and gets `new`,
/// `snapshot` and `reset`. The snapshot gets the same fields as `u64`,
/// its [`Section`] as `SECTION`, `sample` for the renderers, and
/// `delta`/`accumulate` for interval arithmetic. The second form, a
/// snapshot alone, serves values that are aggregated elsewhere rather
/// than counted live.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident $({
            $($(#[$extra_meta:meta])* $extra_vis:vis $extra:ident: $extra_ty:ty),* $(,)?
        })? =>
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident($prefix:literal, $help:literal) {
            $($(#[$field_meta:meta])* $field:ident: $kind:ident),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $($(#[$field_meta])* pub $field: $crate::Counter,)*
            $($($(#[$extra_meta])* $extra_vis $extra: $extra_ty,)*)?
        }

        impl $live {
            /// Fresh zeroed registry.
            pub fn new() -> Self {
                Self::default()
            }

            /// Point-in-time copy of every field.
            pub fn snapshot(&self) -> $snap {
                $snap { $($field: self.$field.get()),* }
            }

            /// Zero every field.
            pub fn reset(&self) {
                $(self.$field.set(0);)*
            }
        }

        $crate::metric_table! {
            $(#[$snap_meta])*
            $snap_vis struct $snap($prefix, $help) {
                $($(#[$field_meta])* $field: $kind),*
            }
        }
    };
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident($prefix:literal, $help:literal) {
            $($(#[$field_meta:meta])* $field:ident: $kind:ident),* $(,)?
        }
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $snap {
            /// Prefix, help text, and every field's name and kind in wire
            /// order.
            pub const SECTION: $crate::metric::Section = $crate::metric::Section {
                prefix: $prefix,
                help: $help,
                fields: &[$((stringify!($field), $crate::metric::Kind::$kind)),*],
            };

            /// These values under [`Self::SECTION`], for the renderers.
            pub fn sample(&self) -> $crate::metric::Sample<'static> {
                (&Self::SECTION, vec![$(self.$field),*])
            }

            /// Component-wise difference `self - earlier`, for measuring
            /// an interval.
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field - earlier.$field),* }
            }

            /// Component-wise sum: merge another interval into this one.
            pub fn accumulate(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metric_table! {
        /// Test registry with an extra field.
        struct Live {
            label: &'static str,
        } =>
        /// Its snapshot.
        struct Snap("t_", "Test section") {
            /// First.
            a: Counter,
            /// Second.
            b: Gauge,
            /// Third.
            c: Counter,
        }
    }

    #[test]
    fn table_fixes_names_kinds_and_order() {
        let live = Live::new();
        live.a.add(1);
        live.b.set(20);
        live.c.inc();
        assert_eq!(live.label, "");
        let snap = live.snapshot();
        assert_eq!(snap, Snap { a: 1, b: 20, c: 1 });
        assert_eq!(
            Snap::SECTION.fields,
            [
                ("a", Kind::Counter),
                ("b", Kind::Gauge),
                ("c", Kind::Counter)
            ]
        );
        let samples = [snap.sample()];
        assert_eq!(render_text(entries(&samples)), "t_a 1\nt_b 20\nt_c 1\n");
        assert_eq!(
            render_json(entries(&samples)),
            r#"{"t_a":1,"t_b":20,"t_c":1}"#
        );
        assert_eq!(render_json(Vec::<(&str, u64)>::new()), "{}");
        live.reset();
        assert_eq!(live.snapshot(), Snap::default());
    }

    #[test]
    fn snapshots_subtract_and_add_field_by_field() {
        let later = Snap { a: 5, b: 7, c: 9 };
        let earlier = Snap { a: 1, b: 2, c: 3 };
        let d = later.delta(&earlier);
        assert_eq!(d, Snap { a: 4, b: 5, c: 6 });
        let mut sum = earlier;
        sum.accumulate(&d);
        assert_eq!(sum, later);
    }
}
