//! The fold as it searched before each row's 1-d bin was reused: every pair
//! dimension searches all of its refined edges for every value, and the
//! derived metadata is refreshed through a fresh χ² memo. It is the oracle
//! [`PairwiseHist::ingest`] is tested against.

use super::*;

/// [`PairwiseHist::ingest`] as it was.
pub(crate) fn ingest(ph: &mut PairwiseHist, rows: &EncodedMatrix) {
    assert_eq!(rows.n_columns(), ph.n_columns(), "batch schema does not match the synopsis");
    let batch = rows.n_rows;
    if batch == 0 {
        return;
    }
    let rho = ph.params.rho();
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        0x1b5e_11ed ^ (ph.params.n_total) ^ ((ph.params.ns as u64) << 32),
    );
    let sampled: Vec<usize> = (0..batch).filter(|_| rho >= 1.0 || rng.gen::<f64>() < rho).collect();

    let null_codes: Vec<Option<u64>> =
        (0..ph.n_columns()).map(|c| ph.pre.transform(c).null_code()).collect();

    // 1-d updates.
    #[allow(clippy::needless_range_loop)]
    for c in 0..ph.n_columns() {
        let col = &rows.columns[c];
        for &r in &sampled {
            let v = col[r];
            if Some(v) == null_codes[c] {
                continue;
            }
            let t = locate_extending(&mut ph.hist1d[c], v);
            bump_bin(&mut ph.hist1d[c], t, v);
        }
    }
    // 2-d updates: counts plus per-dimension marginals and metadata.
    for pair in &mut ph.pairs {
        let (ci, cj) = (pair.col_i, pair.col_j);
        let coli = &rows.columns[ci];
        let colj = &rows.columns[cj];
        let kj = pair.kj();
        for &r in &sampled {
            let (a, b) = (coli[r], colj[r]);
            if Some(a) == null_codes[ci] || Some(b) == null_codes[cj] {
                continue;
            }
            let ti = locate_extending(&mut pair.dim_i.bins, a);
            let tj = locate_extending(&mut pair.dim_j.bins, b);
            pair.counts[ti * kj + tj] += 1;
            bump_bin(&mut pair.dim_i.bins, ti, a);
            bump_bin(&mut pair.dim_j.bins, tj, b);
        }
    }

    let mut chi2 = Chi2Cache::new(ph.params.alpha);
    let m_min = ph.params.m_min;
    for bins in &mut ph.hist1d {
        bins.refresh(m_min, &mut chi2);
    }
    for pair in &mut ph.pairs {
        pair.dim_i.bins.refresh(m_min, &mut chi2);
        pair.dim_j.bins.refresh(m_min, &mut chi2);
    }

    ph.params.n_total += batch as u64;
    ph.params.ns += sampled.len();
}
