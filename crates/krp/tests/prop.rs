//! Randomized-property tests for the Khatri-Rao kernels: random input
//! counts, shapes, and column counts; cursor seek consistency; parallel
//! partitioning across arbitrary thread counts. Cases come from a
//! fixed-seed [`mttkrp_rng::Rng64`] stream.

use mttkrp_blas::{Layout, MatRef};
use mttkrp_krp::{krp_colwise, krp_naive, krp_reuse, krp_rows, par_krp, par_krp_naive, KrpCursor};
use mttkrp_parallel::ThreadPool;
use mttkrp_rng::Rng64;

struct Inputs {
    shapes: Vec<usize>,
    c: usize,
    datas: Vec<Vec<f64>>,
}

fn rand_inputs(rng: &mut Rng64) -> Inputs {
    let z = rng.usize_in(1, 6);
    let shapes: Vec<usize> = (0..z).map(|_| rng.usize_in(1, 6)).collect();
    let c = rng.usize_in(1, 7);
    let datas = shapes
        .iter()
        .map(|&r| (0..r * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    Inputs { shapes, c, datas }
}

fn refs<'a>(inp: &'a Inputs) -> Vec<MatRef<'a>> {
    inp.datas
        .iter()
        .zip(&inp.shapes)
        .map(|(d, &r)| MatRef::from_slice(d, r, inp.c, Layout::RowMajor))
        .collect()
}

#[test]
fn all_variants_agree() {
    let mut rng = Rng64::seed_from_u64(0x6B29_0001);
    for case in 0..96 {
        let inp = rand_inputs(&mut rng);
        let inputs = refs(&inp);
        let j = krp_rows(&inputs);
        let mut reuse = vec![0.0; j * inp.c];
        let mut naive = vec![0.0; j * inp.c];
        let mut colwise = vec![0.0; j * inp.c];
        krp_reuse(&inputs, &mut reuse);
        krp_naive(&inputs, &mut naive);
        krp_colwise(&inputs, &mut colwise);
        assert_eq!(reuse, naive, "case {case}: shapes {:?}", inp.shapes);
        for (a, b) in reuse.iter().zip(&colwise) {
            assert!((a - b).abs() < 1e-12, "case {case}");
        }
    }
}

#[test]
fn parallel_matches_sequential() {
    let mut rng = Rng64::seed_from_u64(0x6B29_0002);
    for case in 0..48 {
        let inp = rand_inputs(&mut rng);
        let t = rng.usize_in(1, 8);
        let inputs = refs(&inp);
        let j = krp_rows(&inputs);
        let mut reference = vec![0.0; j * inp.c];
        krp_reuse(&inputs, &mut reference);
        let pool = ThreadPool::new(t);
        let mut par = vec![0.0; j * inp.c];
        par_krp(&pool, &inputs, &mut par);
        assert_eq!(par, reference, "case {case}: t={t}");
        let mut parn = vec![0.0; j * inp.c];
        par_krp_naive(&pool, &inputs, &mut parn);
        assert_eq!(parn, reference, "case {case}: naive t={t}");
    }
}

#[test]
fn cursor_seek_is_consistent() {
    let mut rng = Rng64::seed_from_u64(0x6B29_0003);
    for case in 0..96 {
        let inp = rand_inputs(&mut rng);
        let inputs = refs(&inp);
        let j = krp_rows(&inputs);
        let mut full = vec![0.0; j * inp.c];
        krp_reuse(&inputs, &mut full);
        let start = rng.usize_below(j);
        let mut cur = KrpCursor::new(&inputs);
        cur.seek(start);
        let mut row = vec![0.0; inp.c];
        for jj in start..j {
            cur.write_next(&mut row);
            assert_eq!(
                &row[..],
                &full[jj * inp.c..(jj + 1) * inp.c],
                "case {case} row {jj}"
            );
        }
        assert_eq!(cur.remaining(), 0);
    }
}

#[test]
fn krp_norm_is_product_of_column_norms() {
    let mut rng = Rng64::seed_from_u64(0x6B29_0005);
    for case in 0..64 {
        // ‖K(:,c)‖² = ‖A(:,c)‖²·‖B(:,c)‖² for K = A ⊙ B (Kronecker of
        // columns).
        let rows_a = rng.usize_in(1, 6);
        let rows_b = rng.usize_in(1, 6);
        let c = rng.usize_in(1, 4);
        let a: Vec<f64> = (0..rows_a * c).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..rows_b * c).map(|_| rng.next_f64() - 0.5).collect();
        let inputs = [
            MatRef::from_slice(&a, rows_a, c, Layout::RowMajor),
            MatRef::from_slice(&b, rows_b, c, Layout::RowMajor),
        ];
        let j = rows_a * rows_b;
        let mut k = vec![0.0; j * c];
        krp_reuse(&inputs, &mut k);
        for col in 0..c {
            let nk: f64 = (0..j).map(|r| k[r * c + col].powi(2)).sum();
            let na: f64 = (0..rows_a).map(|r| a[r * c + col].powi(2)).sum();
            let nb: f64 = (0..rows_b).map(|r| b[r * c + col].powi(2)).sum();
            assert!(
                (nk - na * nb).abs() < 1e-10 * (1.0 + na * nb),
                "case {case} col {col}"
            );
        }
    }
}
