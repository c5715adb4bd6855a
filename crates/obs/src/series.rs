//! Declared scalar series: each serving counter or gauge is written down
//! once, in a [`series!`](crate::series) list, and everything else — the
//! snapshot struct, the atomic cells behind it, the `GET /stats` fields
//! and the `GET /metrics` families — is derived from that list.
//!
//! A stored series is one relaxed [`Scalar`]; bumping it is a single
//! `fetch_add`, with no lock, lookup or allocation on the hot path.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use wwt_json::Json;

/// The Prometheus type of an exported family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows (until restart).
    Counter,
    /// Moves both ways.
    Gauge,
    /// Cumulative buckets plus `_sum` and `_count`.
    Histogram,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// How one scalar series is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// Its key in `GET /stats`, if it appears there.
    pub json: Option<&'static str>,
    /// Its family name in `GET /metrics`, if it appears there.
    pub prom: Option<&'static str>,
    /// Counter or gauge.
    pub kind: Kind,
    /// The one-line `# HELP` text.
    pub help: &'static str,
}

/// The atomic cell behind one stored series. Every access is relaxed:
/// series are independent statistics, never used to order other memory.
#[derive(Debug, Default)]
pub struct Scalar(AtomicU64);

impl Scalar {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one (gauges only).
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the value (gauges and flags).
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A field type a scalar series can have in a snapshot struct: a count
/// (`u64`, `usize`) or a flag (`bool`: `true`/`false` in `/stats`, `1`/`0`
/// in `/metrics`).
pub trait Sample: Copy {
    /// The Prometheus sample value.
    fn number(self) -> u64;
    /// The `/stats` value.
    fn json(self) -> Json {
        Json::from(self.number())
    }
    /// The snapshot value of a [`Scalar`] holding `stored`.
    fn from_stored(stored: u64) -> Self;
}

impl Sample for u64 {
    fn number(self) -> u64 {
        self
    }
    fn from_stored(stored: u64) -> Self {
        stored
    }
}

impl Sample for usize {
    fn number(self) -> u64 {
        self as u64
    }
    fn from_stored(stored: u64) -> Self {
        stored as usize
    }
}

impl Sample for bool {
    fn number(self) -> u64 {
        u64::from(self)
    }
    fn json(self) -> Json {
        Json::Bool(self)
    }
    fn from_stored(stored: u64) -> Self {
        stored != 0
    }
}

/// What [`Snapshot::visit`] calls: a series with its Prometheus and its
/// `/stats` value.
pub type Visitor<'a> = dyn FnMut(&'static Series, u64, Json) + 'a;

/// A snapshot struct declared with [`series!`](crate::series).
pub trait Snapshot {
    /// Visits every series in declaration order (nested snapshots in
    /// place).
    fn visit(&self, f: &mut Visitor<'_>);
}

/// Appends `# HELP` and `# TYPE` lines for one family.
pub fn write_header(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = write!(
        out,
        "# HELP {name} {help}\n# TYPE {name} {}\n",
        kind.label()
    );
}

/// Appends every series of `snapshot` that has a Prometheus name, as its
/// own single-sample family.
pub fn write_prometheus(out: &mut String, snapshot: &dyn Snapshot) {
    snapshot.visit(&mut |series, number, _| {
        if let Some(name) = series.prom {
            write_header(out, name, series.kind, series.help);
            let _ = writeln!(out, "{name} {number}");
        }
    });
}

/// The `(key, value)` pair of every series of `snapshot` that has a
/// `/stats` key, in declaration order.
pub fn json_fields(snapshot: &dyn Snapshot) -> Vec<(&'static str, Json)> {
    let mut fields = Vec::new();
    snapshot.visit(&mut |series, _, json| {
        if let Some(key) = series.json {
            fields.push((key, json));
        }
    });
    fields
}

/// Declares a snapshot struct of scalar series and the private struct of
/// atomic cells its stored series live in. Each entry is
/// `class field: Type => json, prom, Kind, help;`, where `json` is the
/// `/stats` key and `prom` the `/metrics` family name (each a string
/// literal, or `_` for "not exported there"), `Kind` is `Counter` or
/// `Gauge`, and `help` doubles as the first line of the field's docs.
///
/// * `stored`: the series lives in a [`Scalar`] of the cells struct
///   (zeroed by `Default`); its type is a [`Sample`].
/// * `sampled`: the value is computed when the snapshot is taken and
///   handed to `Cells::load` inside its `sampled` argument.
/// * `nested`: the field is itself a `series!` snapshot, also handed in
///   through `sampled` and visited in place; it has no `=> …` part.
#[macro_export]
macro_rules! series {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Snapshot:ident stored in $Cells:ident {
            $(
                $(#[doc = $doc:literal])*
                $class:ident $field:ident: $ty:ty $(=> $json:tt, $prom:tt, $kind:ident, $help:literal)?;
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $Snapshot {
            $( $(#[doc = $help])? $(#[doc = $doc])* pub $field: $ty, )*
        }

        $crate::__series_cells!([$Cells] [] $($class $field;)*);

        impl $Cells {
            /// A snapshot: stored series read from their cells, every
            /// other field taken from `sampled`.
            fn load(&self, sampled: $Snapshot) -> $Snapshot {
                let _ = &sampled; // unused when every series is stored
                $Snapshot {
                    $( $field: $crate::__series_load!($class $ty, self.$field, sampled.$field), )*
                }
            }
        }

        impl $crate::Snapshot for $Snapshot {
            fn visit(&self, f: &mut $crate::Visitor<'_>) {
                $( $crate::__series_visit!($class self.$field, f $(, $json, $prom, $kind, $help)?); )*
            }
        }
    };
}

/// Builds the cells struct of [`series!`](crate::series) from its
/// `stored` entries.
#[doc(hidden)]
#[macro_export]
macro_rules! __series_cells {
    ([$Cells:ident] [$($acc:tt)*]) => {
        /// The atomic cells of the stored series.
        #[derive(Debug, Default)]
        struct $Cells { $($acc)* }
    };
    ([$Cells:ident] [$($acc:tt)*] stored $field:ident; $($rest:tt)*) => {
        $crate::__series_cells!([$Cells] [$($acc)* $field: $crate::Scalar,] $($rest)*);
    };
    ([$Cells:ident] [$($acc:tt)*] sampled $field:ident; $($rest:tt)*) => {
        $crate::__series_cells!([$Cells] [$($acc)*] $($rest)*);
    };
    ([$Cells:ident] [$($acc:tt)*] nested $field:ident; $($rest:tt)*) => {
        $crate::__series_cells!([$Cells] [$($acc)*] $($rest)*);
    };
}

/// One field of a [`series!`](crate::series) snapshot under `load`.
#[doc(hidden)]
#[macro_export]
macro_rules! __series_load {
    (stored $ty:ty, $cell:expr, $sampled:expr) => {
        <$ty as $crate::Sample>::from_stored($cell.get())
    };
    ($class:ident $ty:ty, $cell:expr, $sampled:expr) => {
        $sampled
    };
}

/// One field of a [`series!`](crate::series) snapshot under `visit`.
#[doc(hidden)]
#[macro_export]
macro_rules! __series_visit {
    (nested $value:expr, $f:ident) => {
        $crate::Snapshot::visit(&$value, $f)
    };
    ($class:ident $value:expr, $f:ident, $json:tt, $prom:tt, $kind:ident, $help:literal) => {
        $f(
            &$crate::Series {
                json: $crate::__series_name!($json),
                prom: $crate::__series_name!($prom),
                kind: $crate::Kind::$kind,
                help: $help,
            },
            $crate::Sample::number($value),
            $crate::Sample::json($value),
        )
    };
}

/// `_` → `None`, `"name"` → `Some("name")`.
#[doc(hidden)]
#[macro_export]
macro_rules! __series_name {
    (_) => {
        None
    };
    ($name:literal) => {
        Some($name)
    };
}
