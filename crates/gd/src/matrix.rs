//! Column-major matrix of pre-processed (non-negative integer) values.

/// Pre-processed dataset: every cell is a non-negative integer in the GreedyGD domain.
///
/// Missing values are encoded as a per-column *null code* (`max_encoded + 1`, chosen
/// by the [`Preprocessor`](crate::Preprocessor)), so the matrix is dense — GD
/// compresses null codes like any other value, which is exactly the paper's "encoding
/// missing values" pre-processing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedMatrix {
    /// One `Vec<u64>` per column, each of length `n_rows`.
    pub columns: Vec<Vec<u64>>,
    /// Number of rows.
    pub n_rows: usize,
}

impl EncodedMatrix {
    /// Builds from column vectors, checking that all lengths agree.
    pub fn new(columns: Vec<Vec<u64>>) -> Self {
        let n_rows = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == n_rows),
            "encoded columns have inconsistent lengths"
        );
        Self { columns, n_rows }
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Cell accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.columns[col][row]
    }

    /// Returns the sub-matrix with only the given rows, in order.
    pub fn take_rows(&self, rows: &[usize]) -> EncodedMatrix {
        EncodedMatrix {
            columns: self
                .columns
                .iter()
                .map(|c| rows.iter().map(|&r| c[r]).collect())
                .collect(),
            n_rows: rows.len(),
        }
    }

    /// Per-column maximum value (0 for empty columns).
    pub fn column_max(&self, col: usize) -> u64 {
        self.columns[col].iter().copied().max().unwrap_or(0)
    }
}

/// Matrices for the equivalence test of the fit.
#[cfg(test)]
pub(crate) mod shapes {
    use super::EncodedMatrix;
    use rand::{Rng, SeedableRng};

    /// How many shapes [`shaped`] knows.
    pub(crate) const SHAPES: usize = 5;

    /// `n` rows of the given shape, from `seed`:
    ///
    /// 0. near-unique noise of assorted widths — the fit ends all-deviation and
    ///    the per-column cascade wins;
    /// 1. a dozen distinct rows repeated — whole-row redundancy, GreedyGD wins;
    /// 2. a small alphabet in the high bits over 8 noise bits, next to a constant
    ///    and a low-cardinality column — the search keeps base bits;
    /// 3. NULL-bearing columns (the null code is `max + 1`) beside a sorted one;
    /// 4. every column drawn from one of the kinds above.
    pub(crate) fn shaped(shape: usize, n: usize, seed: u64) -> EncodedMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (shape as u64) << 32);
        let noise = |rng: &mut rand::rngs::StdRng, bits: u32| -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(0..1u64 << bits)).collect()
        };
        let alphabet = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..n).map(|_| (rng.gen_range(0..4u64) << 8) | rng.gen_range(0..256u64)).collect()
        };
        let nullable = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..n).map(|_| if rng.gen_bool(0.1) { 100 } else { rng.gen_range(0..100) }).collect()
        };
        let low_card = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(0..5u64)).collect()
        };
        let columns = match shape {
            0 => vec![noise(&mut rng, 11), noise(&mut rng, 17), noise(&mut rng, 5)],
            1 => {
                let rows: Vec<[u64; 3]> = (0..12)
                    .map(|_| {
                        [rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 9), rng.gen_range(0..7)]
                    })
                    .collect();
                let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows.len())).collect();
                (0..3).map(|c| picks.iter().map(|&p| rows[p][c]).collect()).collect()
            }
            2 => vec![alphabet(&mut rng), vec![9; n], low_card(&mut rng)],
            3 => vec![
                nullable(&mut rng),
                (0..n as u64).map(|i| 1_000 + 3 * i).collect(),
                nullable(&mut rng),
            ],
            _ => (0..rng.gen_range(1..6usize))
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => noise(&mut rng, 13),
                    1 => alphabet(&mut rng),
                    2 => nullable(&mut rng),
                    3 => low_card(&mut rng),
                    _ => vec![3; n],
                })
                .collect(),
        };
        EncodedMatrix::new(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_lengths() {
        let m = EncodedMatrix::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.n_rows, 3);
        assert_eq!(m.n_columns(), 2);
        assert_eq!(m.get(1, 1), 5);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn mismatched_lengths_panic() {
        EncodedMatrix::new(vec![vec![1], vec![1, 2]]);
    }

    #[test]
    fn take_rows_subsets() {
        let m = EncodedMatrix::new(vec![vec![10, 20, 30, 40]]);
        let s = m.take_rows(&[3, 0]);
        assert_eq!(s.columns[0], vec![40, 10]);
    }

    #[test]
    fn column_max_handles_empty() {
        let m = EncodedMatrix::new(vec![vec![]]);
        assert_eq!(m.column_max(0), 0);
    }
}
