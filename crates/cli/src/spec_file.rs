//! The `.stencil` specification file format — a minimal line-oriented
//! format, in the tradition of EDA constraint files:
//!
//! ```text
//! # DENOISE, Fig. 1 of the paper
//! name denoise
//! grid 768 1024
//! element_bits 16
//! offset -1 0
//! offset 0 -1
//! offset 0 0
//! offset 0 1
//! offset 1 0
//! # optional skewed iteration domains: constraint a0 a1 ... b  (a.x + b >= 0)
//! ```
//!
//! `grid` declares the data array extents; the iteration domain defaults
//! to the largest box whose whole window stays in bounds, unless
//! explicit `constraint` lines override it.

use std::error::Error;
use std::fmt;

use stencil_core::{PlanError, StencilSpec};
use stencil_polyhedral::{Constraint, Point, Polyhedron};

/// A parsed specification file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFile {
    /// Kernel name.
    pub name: String,
    /// Data-grid extents.
    pub grid: Vec<i64>,
    /// Stencil window offsets.
    pub offsets: Vec<Point>,
    /// Element width in bits.
    pub element_bits: u32,
    /// Explicit iteration-domain constraints, if any.
    pub constraints: Vec<Constraint>,
}

/// Parse errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseSpecError {}

impl SpecFile {
    /// Parses the text of a `.stencil` file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSpecError`] with the offending line on malformed
    /// input or missing mandatory fields.
    pub fn parse(text: &str) -> Result<Self, ParseSpecError> {
        let mut name = None;
        let mut grid: Option<Vec<i64>> = None;
        let mut offsets = Vec::new();
        let mut offset_lines = Vec::new();
        let mut element_bits = StencilSpec::DEFAULT_ELEMENT_BITS;
        let mut constraints_raw: Vec<(usize, Vec<i64>)> = Vec::new();

        for (ln, raw) in text.lines().enumerate() {
            let line = ln + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut it = content.split_whitespace();
            let key = it.next().expect("non-empty line");
            let rest: Vec<&str> = it.collect();
            let ints = |line: usize, rest: &[&str]| -> Result<Vec<i64>, ParseSpecError> {
                rest.iter()
                    .map(|t| {
                        t.parse::<i64>().map_err(|_| ParseSpecError {
                            line,
                            message: format!("`{t}` is not an integer"),
                        })
                    })
                    .collect()
            };
            match key {
                "name" => {
                    if rest.len() != 1 {
                        return Err(ParseSpecError {
                            line,
                            message: "`name` takes exactly one token".into(),
                        });
                    }
                    name = Some(rest[0].to_owned());
                }
                "grid" => {
                    let v = ints(line, &rest)?;
                    if v.is_empty() || v.iter().any(|&e| e <= 0) {
                        return Err(ParseSpecError {
                            line,
                            message: "`grid` needs positive extents".into(),
                        });
                    }
                    grid = Some(v);
                }
                "offset" => {
                    let v = ints(line, &rest)?;
                    if v.is_empty() {
                        return Err(ParseSpecError {
                            line,
                            message: "`offset` needs coordinates".into(),
                        });
                    }
                    offsets.push(Point::new(&v));
                    offset_lines.push(line);
                }
                "element_bits" => {
                    let v = ints(line, &rest)?;
                    match v.as_slice() {
                        [b] if (1..=64).contains(b) => element_bits = *b as u32,
                        _ => {
                            return Err(ParseSpecError {
                                line,
                                message: "`element_bits` needs one value in 1..=64".into(),
                            })
                        }
                    }
                }
                "constraint" => {
                    let v = ints(line, &rest)?;
                    if v.len() < 2 {
                        return Err(ParseSpecError {
                            line,
                            message: "`constraint` needs coefficients and a constant".into(),
                        });
                    }
                    constraints_raw.push((line, v));
                }
                other => {
                    return Err(ParseSpecError {
                        line,
                        message: format!("unknown directive `{other}`"),
                    })
                }
            }
        }

        let name = name.ok_or(ParseSpecError {
            line: 0,
            message: "missing `name`".into(),
        })?;
        let grid = grid.ok_or(ParseSpecError {
            line: 0,
            message: "missing `grid`".into(),
        })?;
        if offsets.is_empty() {
            return Err(ParseSpecError {
                line: 0,
                message: "at least one `offset` required".into(),
            });
        }
        let dims = grid.len();
        for f in &offsets {
            if f.dims() != dims {
                return Err(ParseSpecError {
                    line: 0,
                    message: format!("offset {f} does not match grid dimensionality {dims}"),
                });
            }
        }
        if constraints_raw.is_empty() {
            // The default interior box starts at the negated least
            // offset in each dimension, which `i64` cannot hold for
            // `i64::MIN`.
            let overflow = offsets
                .iter()
                .zip(&offset_lines)
                .find(|(f, _)| f.as_slice().contains(&i64::MIN));
            if let Some((f, &line)) = overflow {
                return Err(ParseSpecError {
                    line,
                    message: format!(
                        "offset {f} puts the default interior box's lower bound outside i64"
                    ),
                });
            }
        }
        let mut constraints = Vec::new();
        for (line, v) in constraints_raw {
            if v.len() != dims + 1 {
                return Err(ParseSpecError {
                    line,
                    message: format!("`constraint` needs {dims} coefficients plus a constant"),
                });
            }
            constraints.push(Constraint::new(&v[..dims], v[dims]));
        }

        Ok(Self {
            name,
            grid,
            offsets,
            element_bits,
            constraints,
        })
    }

    /// Renders the specification back to `.stencil` text; parsing the
    /// result reproduces this value exactly.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "name {}", self.name);
        let grid: Vec<String> = self.grid.iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "grid {}", grid.join(" "));
        let _ = writeln!(out, "element_bits {}", self.element_bits);
        for f in &self.offsets {
            let coords: Vec<String> = f.as_slice().iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "offset {}", coords.join(" "));
        }
        for c in &self.constraints {
            let mut tokens: Vec<String> = c.coeffs().iter().map(ToString::to_string).collect();
            tokens.push(c.constant().to_string());
            let _ = writeln!(out, "constraint {}", tokens.join(" "));
        }
        out
    }

    /// Builds the validated [`StencilSpec`].
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from specification validation.
    pub fn to_spec(&self) -> Result<StencilSpec, PlanError> {
        let iteration = if self.constraints.is_empty() {
            // Default: largest interior box.
            let dims = self.grid.len();
            let mut bounds = Vec::with_capacity(dims);
            for d in 0..dims {
                let min_f = self.offsets.iter().map(|f| f[d]).min().expect("non-empty");
                let max_f = self.offsets.iter().map(|f| f[d]).max().expect("non-empty");
                // `parse` rejects an `i64::MIN` offset; saturating keeps a
                // hand-built spec from panicking (its box is then empty).
                bounds.push((
                    min_f.min(0).saturating_neg(),
                    self.grid[d] - 1 - max_f.max(0),
                ));
            }
            Polyhedron::rect(&bounds)
        } else {
            Polyhedron::new(self.grid.len(), self.constraints.clone())
        };
        StencilSpec::with_element_bits(
            self.name.clone(),
            iteration,
            self.offsets.clone(),
            self.element_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DENOISE: &str = "\
# DENOISE, Fig. 1
name denoise
grid 768 1024
element_bits 16
offset -1 0
offset 0 -1
offset 0 0
offset 0 1
offset 1 0
";

    #[test]
    fn parses_denoise() {
        let f = SpecFile::parse(DENOISE).unwrap();
        assert_eq!(f.name, "denoise");
        assert_eq!(f.grid, vec![768, 1024]);
        assert_eq!(f.offsets.len(), 5);
        assert_eq!(f.element_bits, 16);
        let spec = f.to_spec().unwrap();
        assert_eq!(spec.window_size(), 5);
        assert_eq!(spec.input_domain().count().unwrap(), 768 * 1024);
    }

    #[test]
    fn an_offset_past_the_interior_box_is_a_typed_error() {
        // The least offset's negation is the box's lower bound: `i64`
        // cannot hold it for `i64::MIN`.
        let text = "name x\ngrid 10 10\noffset -9223372036854775808 0\n";
        let e = SpecFile::parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("interior box"), "{e}");
        // Explicit constraints replace the default box, so the offset
        // parses, and the hand-built default box is empty, not a panic.
        let constrained = format!("{text}constraint 1 0 0\nconstraint 0 1 0\n");
        let f = SpecFile::parse(&constrained).unwrap();
        let boxed = SpecFile {
            constraints: Vec::new(),
            ..f
        };
        let spec = boxed.to_spec().unwrap();
        assert!(spec.iteration_domain().is_empty().unwrap());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let f = SpecFile::parse("name x\n\n# hi\ngrid 8 # trailing\noffset 0\n");
        // grid has trailing comment stripped -> one extent.
        let f = f.unwrap();
        assert_eq!(f.grid, vec![8]);
    }

    #[test]
    fn skewed_constraints_accepted() {
        let text = "\
name skew
grid 64 64
offset 0 0
offset 1 1
constraint 0 1 -1
constraint 0 -1 12
constraint 1 -1 -1
constraint -1 1 20
";
        let f = SpecFile::parse(text).unwrap();
        assert_eq!(f.constraints.len(), 4);
        let spec = f.to_spec().unwrap();
        assert!(spec.iteration_domain().count().unwrap() > 0);
    }

    #[test]
    fn error_reporting_with_lines() {
        let err = SpecFile::parse("name a\ngrid 4 x\noffset 0 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("not an integer"));

        let err = SpecFile::parse("grid 4\noffset 0\n").unwrap_err();
        assert!(err.message.contains("missing `name`"));

        let err = SpecFile::parse("name a\ngrid 4\n").unwrap_err();
        assert!(err.message.contains("offset"));

        let err = SpecFile::parse("name a\ngrid 4\nfrobnicate 1\n").unwrap_err();
        assert!(err.message.contains("unknown directive"));

        let err = SpecFile::parse("name a\ngrid 4\noffset 0 0\n").unwrap_err();
        assert!(err.message.contains("dimensionality"));
    }

    #[test]
    fn render_parse_roundtrip() {
        let f = SpecFile::parse(DENOISE).unwrap();
        let again = SpecFile::parse(&f.render()).unwrap();
        assert_eq!(f, again);
        // Including constraints.
        let skew = SpecFile::parse(
            "name s
grid 32 32
offset 0 0
offset 1 1
constraint 1 -1 -1
constraint -1 1 20
",
        )
        .unwrap();
        let again = SpecFile::parse(&skew.render()).unwrap();
        assert_eq!(skew, again);
    }

    #[test]
    fn bad_element_bits_rejected() {
        let err = SpecFile::parse("name a\ngrid 4\noffset 0\nelement_bits 99\n").unwrap_err();
        assert!(err.message.contains("element_bits"));
    }

    #[test]
    fn constraint_arity_checked() {
        let err = SpecFile::parse("name a\ngrid 4 4\noffset 0 0\nconstraint 1 0\n").unwrap_err();
        assert!(err.message.contains("coefficients plus a constant"));
    }
}
