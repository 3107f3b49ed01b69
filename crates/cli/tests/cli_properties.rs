//! Property-based validation of the `.stencil` format: render/parse
//! round-trips and parser robustness over randomized specifications,
//! through `to_spec` too.

use proptest::prelude::*;

// The spec-file module is private to the binary crate; exercise it
// through a thin re-declaration of the same source file.
#[path = "../src/spec_file.rs"]
mod spec_file;

use spec_file::SpecFile;
use stencil_polyhedral::{Constraint, Point};

fn random_spec() -> impl Strategy<Value = SpecFile> {
    (
        "[a-z][a-z0-9_]{0,12}",
        prop::collection::vec(2i64..64, 1..=3),
        prop::collection::btree_set(((-3i64..=3), (-3i64..=3), (-3i64..=3)), 1..8),
        prop::sample::select(vec![8u32, 16, 32, 64]),
    )
        .prop_map(|(name, grid, offs, element_bits)| {
            let dims = grid.len();
            let offsets: Vec<Point> = offs
                .into_iter()
                .map(|(a, b, c)| Point::new(&[a, b, c][..dims]))
                .collect();
            SpecFile {
                name,
                grid,
                offsets,
                element_bits,
                constraints: Vec::new(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// render ∘ parse is the identity on well-formed specs.
    #[test]
    fn render_parse_roundtrip(spec in random_spec()) {
        let text = spec.render();
        let parsed = SpecFile::parse(&text).expect("rendered specs parse");
        prop_assert_eq!(parsed, spec);
    }

    /// The parser never panics on arbitrary input — it either parses or
    /// reports a line-numbered error.
    #[test]
    fn parser_is_total(garbage in "[ -~\n]{0,256}") {
        let _ = SpecFile::parse(&garbage);
    }

    /// Whitespace and comments never change the parse.
    #[test]
    fn comments_are_transparent(spec in random_spec()) {
        let text = spec.render();
        let noisy: String = text
            .lines()
            .flat_map(|l| [format!("  {l}   # trailing"), "# full comment".to_owned()])
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = SpecFile::parse(&noisy).expect("noisy but well-formed");
        prop_assert_eq!(parsed, spec);
    }

    /// parse ∘ render preserves the *validated* specification too: the
    /// reparsed file builds a `StencilSpec` identical to the original's
    /// (same name, iteration domain, window, element width).
    #[test]
    fn roundtrip_preserves_stencil_spec(spec in buildable_spec()) {
        let direct = spec.to_spec().expect("buildable by construction");
        let reparsed = SpecFile::parse(&spec.render()).expect("rendered specs parse");
        let rebuilt = reparsed.to_spec().expect("roundtripped specs build");
        prop_assert_eq!(rebuilt, direct);
    }

    /// Explicit `constraint` lines (skewed iteration domains) survive
    /// the round-trip, both at the file level and the spec level.
    #[test]
    fn constraint_lines_roundtrip(spec in constrained_spec()) {
        let reparsed = SpecFile::parse(&spec.render()).expect("rendered specs parse");
        prop_assert_eq!(&reparsed, &spec);
        let direct = spec.to_spec().expect("box domains build");
        let rebuilt = reparsed.to_spec().expect("roundtripped specs build");
        prop_assert_eq!(rebuilt, direct);
    }
}

/// One token of a spec line: an integer anywhere in `i64` (its
/// extremes often), a small integer, or printable garbage.
fn spec_token() -> impl Strategy<Value = String> {
    let extremes = prop::sample::select(vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]);
    (
        0u8..4,
        i64::MIN..=i64::MAX,
        extremes,
        -4i64..=64,
        "[!-~]{1,6}",
    )
        .prop_map(|(kind, any, extreme, small, garbage)| match kind {
            0 => any.to_string(),
            1 => extreme.to_string(),
            2 => small.to_string(),
            _ => garbage,
        })
}

/// One arbitrary spec line: a directive, known or not, with up to four
/// tokens.
fn spec_line() -> impl Strategy<Value = String> {
    let key = prop::sample::select(vec![
        "name",
        "grid",
        "offset",
        "offset",
        "element_bits",
        "constraint",
        "bogus",
        "#",
    ]);
    (key, prop::collection::vec(spec_token(), 0..5))
        .prop_map(|(key, tokens)| format!("{key} {}", tokens.join(" ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parsing arbitrary directive lines and building the spec of what
    /// parses never panics: every failure is a typed error.
    #[test]
    fn parse_then_to_spec_is_total(lines in prop::collection::vec(spec_line(), 0..10)) {
        if let Ok(file) = SpecFile::parse(&lines.join("\n")) {
            let _ = file.to_spec();
        }
    }

    /// The same on files that carry a name, a grid and offsets of one
    /// dimensionality, so most of them parse: extreme extents, offsets
    /// and constraints reach `to_spec`.
    #[test]
    fn near_valid_specs_build_or_fail_typed(
        grid in prop::collection::vec(spec_token(), 1..=3),
        offsets in prop::collection::vec(prop::collection::vec(spec_token(), 3), 1..5),
        constraints in prop::collection::vec(prop::collection::vec(spec_token(), 4), 0..3),
    ) {
        let dims = grid.len();
        let mut text = format!("name fuzz\ngrid {}\n", grid.join(" "));
        for f in &offsets {
            text += &format!("offset {}\n", f[..dims].join(" "));
        }
        for c in &constraints {
            text += &format!("constraint {}\n", c[..=dims].join(" "));
        }
        if let Ok(file) = SpecFile::parse(&text) {
            let _ = file.to_spec();
        }
    }
}

/// Specs whose window always fits the grid, so `to_spec` succeeds.
fn buildable_spec() -> impl Strategy<Value = SpecFile> {
    (
        "[a-z][a-z0-9_]{0,12}",
        prop::collection::vec(8i64..64, 1..=3),
        prop::collection::btree_set(((-3i64..=3), (-3i64..=3), (-3i64..=3)), 1..8),
        prop::sample::select(vec![8u32, 16, 32, 64]),
    )
        .prop_map(|(name, grid, offs, element_bits)| {
            let dims = grid.len();
            // Projecting 3-tuples to fewer dims can collide; dedup so
            // the window stays a set (a `StencilSpec` requirement).
            let offsets: Vec<Point> = offs
                .into_iter()
                .map(|(a, b, c)| [a, b, c][..dims].to_vec())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|v| Point::new(&v))
                .collect();
            SpecFile {
                name,
                grid,
                offsets,
                element_bits,
                constraints: Vec::new(),
            }
        })
}

/// Specs with an explicit box iteration domain given as `constraint`
/// lines (`x_d - lo >= 0` and `-x_d + hi >= 0` per dimension).
fn constrained_spec() -> impl Strategy<Value = SpecFile> {
    (
        "[a-z][a-z0-9_]{0,8}",
        prop::collection::vec((2i64..8, 0i64..8), 1..=3),
        prop::collection::btree_set(((-2i64..=2), (-2i64..=2), (-2i64..=2)), 1..6),
    )
        .prop_map(|(name, boxes, offs)| {
            let dims = boxes.len();
            let offsets: Vec<Point> = offs
                .into_iter()
                .map(|(a, b, c)| [a, b, c][..dims].to_vec())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|v| Point::new(&v))
                .collect();
            let mut constraints = Vec::with_capacity(2 * dims);
            let mut grid = Vec::with_capacity(dims);
            for (d, &(extent, lo)) in boxes.iter().enumerate() {
                let hi = lo + extent - 1;
                let mut unit = vec![0i64; dims];
                unit[d] = 1;
                constraints.push(Constraint::new(&unit, -lo));
                unit[d] = -1;
                constraints.push(Constraint::new(&unit, hi));
                grid.push(hi + 4);
            }
            SpecFile {
                name,
                grid,
                offsets,
                element_bits: 32,
                constraints,
            }
        })
}
