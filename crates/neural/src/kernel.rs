//! The register-tiled micro-kernels behind every dense product.
//!
//! [`Matrix::matmul`](crate::Matrix::matmul), `t_matmul`, `matmul_t`
//! and [`Csr::matmul_dense`](crate::Csr::matmul_dense) all land here.
//! Each kernel body is written once and compiled twice: a portable copy
//! and a copy with the `avx2` target feature, chosen at run time by
//! [`Simd::detect`].
//!
//! **Bit contract.** Every output element is `Σ_p a[i,p]·b[p,j]` added in
//! ascending `p`, starting from `+0.0`, with a separate multiply and add
//! (no `fma` feature, no `mul_add`: a fused multiply-add rounds once
//! instead of twice). Both copies therefore give the bits of the naive
//! ascending-`p` loop. The kernels do not skip zero left operands: an
//! accumulator that starts at `+0.0` never becomes `-0.0` under
//! round-to-nearest, so adding a `±0` product leaves it unchanged
//! whenever the right operand is finite (DESIGN.md §13).

/// Rows of one register tile.
const MR: usize = 4;
/// Columns of one register tile; the column edge falls back to 4 and 1.
const NR: usize = 8;

/// Which compiled copy of the kernels to run.
///
/// The field is private to this module, so only [`Simd::detect`] can
/// select the AVX2 copy: holding `avx2 == true` proves the CPU has it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Simd {
    avx2: bool,
}

impl Simd {
    /// The fastest copy this CPU can run.
    pub(crate) fn detect() -> Simd {
        Simd {
            avx2: avx2_detected(),
        }
    }

    /// The portable copy, so tests cover it on AVX2 machines too.
    #[cfg(test)]
    pub(crate) const PORTABLE: Simd = Simd { avx2: false };
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
}

/// A read-only `n × k` left operand: element `(i, p)` is
/// `data[i * row_stride + p * col_stride]`, so both a row-major matrix
/// and the transpose of one are read in place.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) data: &'a [f64],
    pub(crate) row_stride: usize,
    pub(crate) col_stride: usize,
}

/// `A · B` as a row-major `n × m` buffer, for `A` an `n × k` [`Lhs`] and
/// `B` a row-major `k × m` buffer.
pub(crate) fn gemm(simd: Simd, a: Lhs<'_>, b: &[f64], n: usize, k: usize, m: usize) -> Vec<f64> {
    assert_eq!(b.len(), k * m, "gemm right operand size");
    let mut out = vec![0.0; n * m];
    if n == 0 || m == 0 {
        return out;
    }
    #[cfg(target_arch = "x86_64")]
    if simd.avx2 {
        // SAFETY: `simd.avx2` is true only when `Simd::detect` found AVX2
        // on this CPU.
        unsafe { gemm_avx2(a, b, &mut out, k, m) };
        return out;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    gemm_body(a, b, &mut out, k, m);
    out
}

/// [`gemm_body`] compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(a: Lhs<'_>, b: &[f64], out: &mut [f64], k: usize, m: usize) {
    gemm_body(a, b, out, k, m)
}

/// Row blocks of `MR` rows, then single rows. Each block's slice of `A`
/// is packed `p`-major, so the tile loop reads it contiguously.
#[inline(always)]
fn gemm_body(a: Lhs<'_>, b: &[f64], out: &mut [f64], k: usize, m: usize) {
    let n = out.len() / m;
    let mut panel = vec![0.0; k * MR];
    let mut i = 0;
    while i + MR <= n {
        row_block::<MR>(a, i, b, &mut panel, out, m);
        i += MR;
    }
    while i < n {
        row_block::<1>(a, i, b, &mut panel, out, m);
        i += 1;
    }
}

#[inline(always)]
fn row_block<const R: usize>(
    a: Lhs<'_>,
    i0: usize,
    b: &[f64],
    panel: &mut [f64],
    out: &mut [f64],
    m: usize,
) {
    let k = b.len() / m;
    let (panel, _) = panel[..k * R].as_chunks_mut::<R>();
    for (p, dst) in panel.iter_mut().enumerate() {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = a.data[(i0 + r) * a.row_stride + p * a.col_stride];
        }
    }
    let panel = &*panel;
    let rows = &mut out[i0 * m..(i0 + R) * m];
    let mut j = 0;
    while j + NR <= m {
        tile::<R, NR>(panel, b, rows, j, m);
        j += NR;
    }
    while j + 4 <= m {
        tile::<R, 4>(panel, b, rows, j, m);
        j += 4;
    }
    while j < m {
        tile::<R, 1>(panel, b, rows, j, m);
        j += 1;
    }
}

/// One `R × C` block of the output, held in registers for the whole
/// depth loop and stored once.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    panel: &[[f64; R]],
    b: &[f64],
    rows: &mut [f64],
    j0: usize,
    m: usize,
) {
    let mut acc = [[0.0f64; C]; R];
    for (ap, brow) in panel.iter().zip(b.chunks_exact(m)) {
        let bt: &[f64; C] = brow[j0..j0 + C].try_into().expect("tile inside the row");
        for r in 0..R {
            for c in 0..C {
                acc[r][c] += ap[r] * bt[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        rows[r * m + j0..r * m + j0 + C].copy_from_slice(row);
    }
}

/// The CSR structure of a square sparse matrix.
#[derive(Clone, Copy)]
pub(crate) struct CsrRef<'a> {
    pub(crate) row_ptr: &'a [usize],
    pub(crate) col_idx: &'a [usize],
    pub(crate) values: &'a [f64],
}

/// `S · D` as a row-major `n × m` buffer, for `S` an `n × n` CSR matrix
/// and `D` a row-major `n × m` buffer.
pub(crate) fn spmm(simd: Simd, s: CsrRef<'_>, dense: &[f64], m: usize) -> Vec<f64> {
    let n = s.row_ptr.len() - 1;
    assert_eq!(dense.len(), n * m, "spmm right operand size");
    let mut out = vec![0.0; n * m];
    if m == 0 {
        return out;
    }
    #[cfg(target_arch = "x86_64")]
    if simd.avx2 {
        // SAFETY: `simd.avx2` is true only when `Simd::detect` found AVX2
        // on this CPU.
        unsafe { spmm_avx2(s, dense, &mut out, m) };
        return out;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    spmm_body(s, dense, &mut out, m);
    out
}

/// [`spmm_body`] compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spmm_avx2(s: CsrRef<'_>, dense: &[f64], out: &mut [f64], m: usize) {
    spmm_body(s, dense, out, m)
}

#[inline(always)]
fn spmm_body(s: CsrRef<'_>, dense: &[f64], out: &mut [f64], m: usize) {
    for (r, dst) in out.chunks_exact_mut(m).enumerate() {
        for e in s.row_ptr[r]..s.row_ptr[r + 1] {
            let c = s.col_idx[e];
            let v = s.values[e];
            for (d, &x) in dst.iter_mut().zip(&dense[c * m..(c + 1) * m]) {
                *d += v * x;
            }
        }
    }
}
