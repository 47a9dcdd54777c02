#include "suite/suite.h"

#include "support/assert.h"

namespace polaris {

namespace {

// Each mini is written so the paper's named technique decides its fate:
// the transformation Polaris applies (and the baseline lacks) governs
// whether the dominant loop parallelizes.  All programs print checksums.

const char* kApplu = R"F(
      program applu
c     parabolic/elliptic PDE solver: SSOR wavefront recurrence dominates;
c     neither compiler can parallelize it (true dependences), so the PFA
c     back end's better code generation wins slightly.
      parameter (nx = 60, ny = 60, nsteps = 4)
      real u(nx, ny)
      do j = 1, ny
        do i = 1, nx
          u(i, j) = mod(i*3 + j*7, 11)*0.1
        end do
      end do
      do s = 1, nsteps
        do j = 2, ny
          do i = 2, nx
            u(i, j) = (u(i - 1, j) + u(i, j - 1))*0.4999 + 0.01
          end do
        end do
      end do
      cks = 0.0
      do j = 1, ny
        do i = 1, nx
          cks = cks + u(i, j)
        end do
      end do
      print *, 'applu', cks
      end
)F";

const char* kAppsp = R"F(
      program appsp
c     gaussian-elimination style solver: long parallel sweeps plus 5-wide
c     block loops.  Both compilers find the parallelism, but PFA's
c     restructuring backfires on the short constant-trip inner loops.
      parameter (n = 2500, nb = 5, nsteps = 3)
      real v(n), rhs(n), c(nb)
      do i = 1, n
        v(i) = mod(i, 13)*0.25
      end do
      do kb = 1, nb
        c(kb) = kb*0.1
      end do
      do s = 1, nsteps
        do i = 2, n - 1
          rhs(i) = (v(i - 1) + v(i + 1))*0.5 - v(i)
        end do
        do i = 2, n - 1
          t = 0.0
          do kb = 1, nb
            t = t + rhs(i)*c(kb)
          end do
          v(i) = v(i) + t*0.2
        end do
      end do
      cks = 0.0
      do i = 1, n
        cks = cks + v(i)
      end do
      print *, 'appsp', cks
      end
)F";

const char* kArc2d = R"F(
      program arc2d
c     implicit finite-difference sweeps: the outer line loop needs the
c     work array w privatized (Polaris); the baseline only parallelizes
c     the short inner loops and drowns in fork/join overhead.
      parameter (im = 64, jm = 200, nsweep = 3)
      real q(im, jm), q2(im, jm), w(im)
      do j = 1, jm
        do i = 1, im
          q(i, j) = mod(i + j, 9)*0.125
          q2(i, j) = 0.0
        end do
      end do
      do s = 1, nsweep
        do j = 2, jm - 1
          do i = 1, im
            w(i) = q(i, j - 1) + q(i, j + 1)
          end do
          do i = 2, im - 1
            q2(i, j) = (w(i - 1) + w(i + 1))*0.25 + q(i, j)*0.5
          end do
        end do
        do j = 2, jm - 1
          do i = 2, im - 1
            q(i, j) = q2(i, j)
          end do
        end do
      end do
      cks = 0.0
      do j = 1, jm
        do i = 1, im
          cks = cks + q(i, j)
        end do
      end do
      print *, 'arc2d', cks
      end
)F";

const char* kBdna = R"F(
      program bdna
c     molecular dynamics of biomolecules: the paper's Figure 5 kernel —
c     gather/compress through IND with the monotonic-counter proof; array
c     privatization of A and IND enables the outer loop.
      parameter (n = 150)
      real x(n, n), y(n, n), a(n)
      integer ind(n), p
      real r, w, z, rcuts
      w = 0.1
      z = 0.05
      rcuts = 1.1
      do i = 1, n
        do j = 1, n
          x(i, j) = mod(i*5 + j*3, 17)*0.125
          y(i, j) = mod(i + j*11, 13)*0.0625
        end do
      end do
      do i = 2, n
        do j = 1, i - 1
          ind(j) = 0
          a(j) = (x(i, j) - y(i, j))*1.125 + (x(i, j) + y(i, j))*0.0625
          r = a(j)*0.75 + a(j)*0.25 + w
          if (r .lt. rcuts) ind(j) = 1
        end do
        p = 0
        do k = 1, i - 1
          if (ind(k) .ne. 0) then
            p = p + 1
            ind(p) = k
          end if
        end do
        do l = 1, p
          m = ind(l)
          x(i, l) = a(m) + z
        end do
      end do
      cks = 0.0
      do i = 1, n
        do j = 1, n
          cks = cks + x(i, j)
        end do
      end do
      print *, 'bdna', cks
      end
)F";

const char* kCmhog = R"F(
      program cmhog
c     3D ideal gas dynamics (NCSA): directional sweeps with a privatizable
c     interface-state buffer per column; symbolic grid sizes.
      parameter (maxn = 150)
      real d(maxn, maxn), dn(maxn, maxn), wl(maxn)
      integer nx, ny
      nx = 120
      ny = 120
      do j = 1, ny
        do i = 1, nx
          d(i, j) = mod(i*2 + j, 19)*0.0625 + 0.5
        end do
      end do
      do s = 1, 2
        do j = 2, ny - 1
          do i = 1, nx
            wl(i) = d(i, j)*0.75 + d(i, j - 1)*0.25
          end do
          do i = 2, nx - 1
            dn(i, j) = (wl(i - 1) + wl(i + 1))*0.5
          end do
        end do
        do j = 2, ny - 1
          do i = 2, nx - 1
            d(i, j) = dn(i, j)
          end do
        end do
      end do
      cks = 0.0
      do j = 1, ny
        do i = 1, nx
          cks = cks + d(i, j)
        end do
      end do
      print *, 'cmhog', cks
      end
)F";

const char* kCloud3d = R"F(
      program cloud3d
c     3D atmospheric convection (NCSA): parallel per-column microphysics
c     (needs the w buffer privatized) plus a sequential vertical
c     integration that bounds the overall speedup.
      parameter (nz = 60, ncol = 120, nsteps = 2)
      real t(nz, ncol), pr(nz, ncol), w(nz)
      do jc = 1, ncol
        do k = 1, nz
          t(k, jc) = mod(k*3 + jc, 23)*0.04 + 1.0
          pr(k, jc) = 0.0
        end do
      end do
      do s = 1, nsteps
        do jc = 1, ncol
          do k = 1, nz
            w(k) = t(k, jc)*0.9 + 0.1
          end do
          do k = 2, nz
            t(k, jc) = (w(k) + w(k - 1))*0.5
          end do
        end do
        do k = 2, nz
          do jc = 1, ncol
            pr(k, jc) = pr(k - 1, jc)*0.98 + t(k, jc)*0.02
          end do
        end do
      end do
      cks = 0.0
      do jc = 1, ncol
        do k = 1, nz
          cks = cks + t(k, jc) + pr(k, jc)
        end do
      end do
      print *, 'cloud3d', cks
      end
)F";

const char* kFlo52 = R"F(
      program flo52
c     transonic flow past an airfoil: multi-stage sweeps whose line buffer
c     must be privatized for the outer loop (Polaris), plus a max-norm
c     residual reduction.
      parameter (ni = 96, nj = 120, nstage = 3)
      real w(ni, nj), wn(ni, nj), fs(ni)
      do j = 1, nj
        do i = 1, ni
          w(i, j) = mod(i*3 + j, 11)*0.1 + 0.5
        end do
      end do
      res = 0.0
      do s = 1, nstage
        do j = 2, nj - 1
          do i = 1, ni
            fs(i) = w(i, j)*0.5 + w(i, j - 1)*0.25 + w(i, j + 1)*0.25
          end do
          do i = 2, ni - 1
            wn(i, j) = (fs(i - 1) + fs(i + 1))*0.5
          end do
        end do
        res = 0.0
        do j = 2, nj - 1
          do i = 2, ni - 1
            res = max(res, abs(wn(i, j) - w(i, j)))
            w(i, j) = wn(i, j)
          end do
        end do
      end do
      print *, 'flo52', w(ni/2, nj/2), res
      end
)F";

const char* kHydro2d = R"F(
      program hydro2d
c     galactic jets via Navier-Stokes: 2D stencils with a privatizable
c     row buffer and a global sum reduction.
      parameter (nx = 100, ny = 100, nsteps = 3)
      real ro(nx, ny), rn(nx, ny), row(nx)
      do j = 1, ny
        do i = 1, nx
          ro(i, j) = mod(i + 2*j, 7)*0.2 + 1.0
        end do
      end do
      do s = 1, nsteps
        do j = 2, ny - 1
          do i = 1, nx
            row(i) = ro(i, j)*0.6 + ro(i, j - 1)*0.2 + ro(i, j + 1)*0.2
          end do
          do i = 2, nx - 1
            rn(i, j) = (row(i - 1) + row(i) + row(i + 1))/3.0
          end do
        end do
        do j = 2, ny - 1
          do i = 2, nx - 1
            ro(i, j) = rn(i, j)
          end do
        end do
      end do
      total = 0.0
      do j = 1, ny
        do i = 1, nx
          total = total + ro(i, j)
        end do
      end do
      print *, 'hydro2d', total
      end
)F";

const char* kMdg = R"F(
      program mdg
c     molecular dynamics of water: pairwise forces accumulate into
c     per-particle arrays — histogram reductions (Polaris) — plus a
c     scalar energy reduction.
      parameter (np = 400, nnb = 27)
      real f(np), v(np)
      do i = 1, np
        v(i) = mod(i*13, 31)*0.03
        f(i) = 0.0
      end do
      energy = 0.0
      do i = 1, np
        do j = 1, nnb
          k = mod(i*7 + j*13, np) + 1
          f(k) = f(k) + v(i)*0.01
          f(i) = f(i) - v(k)*0.005
          energy = energy + v(i)*v(k)
        end do
      end do
      cks = 0.0
      do i = 1, np
        cks = cks + f(i)
      end do
      print *, 'mdg', cks, energy
      end
)F";

const char* kOcean = R"F(
      program ocean
c     Boussinesq fluid layer: the paper's Figure 3 FTRVMT kernel — the
c     nonlinear term 258*x*j defeats linear tests; the range test (with
c     the loop-order permutation) proves all three loops parallel.
      parameter (x = 4)
      integer z(0:3)
      real a(35000)
      do k = 0, x - 1
        z(k) = 24
      end do
      do i = 1, 33540
        a(i) = 0.0
      end do
      do k = 0, x - 1
        do j = 0, z(k)
          do i = 0, 128
            a(258*x*j + 129*k + i + 1) = a(258*x*j + 129*k + i + 1)
     &        + (k + 1)*0.25 + j*0.01 + (i + k)*0.002 + (j + k)*0.001
            a(258*x*j + 129*k + i + 1 + 129*x) = (i + 1)*0.004
     &        + (j + 1)*0.003 + (k + 1)*0.002 + (i + j + k)*0.001
          end do
        end do
      end do
      cks = 0.0
      do i = 1, 33540
        cks = cks + a(i)
      end do
      print *, 'ocean', cks
      end
)F";

const char* kSu2cor = R"F(
      program su2cor
c     Monte Carlo quantum mechanics: the lattice update is driven by a
c     sequential congruential generator; both compilers keep it serial,
c     and PFA's back end wins on code quality alone.
      parameter (ns = 500, ng = 40)
      real lat(ns), g(ns, ng)
      integer seed
      seed = 12345
      do i = 1, 15000
        seed = mod(seed*109 + 24691, 65536)
        lat(mod(i, ns) + 1) = seed*0.0001
      end do
      do j = 1, ng
        do i = 1, ns
          g(i, j) = lat(i)*0.01 + j*0.001
        end do
      end do
      do j = 2, ng
        do i = 1, ns
          g(i, j) = g(i, j - 1)*0.99 + g(i, j)*0.01
        end do
      end do
      cks = 0.0
      do i = 1, ns
        cks = cks + g(i, ng)
      end do
      print *, 'su2cor', cks
      end
)F";

const char* kSwim = R"F(
      program swim
c     shallow water equations: long regular 1D sweeps with no privatization
c     or symbolic obstacles — both compilers parallelize everything.
      parameter (n = 5000)
      real u(n), un(n)
      do i = 1, n
        u(i) = mod(i, 37)*0.05
      end do
      do i = 2, n - 1
        un(i) = u(i) + (u(i + 1) - 2.0*u(i) + u(i - 1))*0.125
      end do
      do i = 2, n - 1
        u(i) = un(i)
      end do
      do i = 2, n - 1
        un(i) = u(i) + (u(i + 1) - 2.0*u(i) + u(i - 1))*0.125
      end do
      do i = 2, n - 1
        u(i) = un(i)
      end do
      cks = 0.0
      do i = 1, n
        cks = cks + u(i)
      end do
      print *, 'swim', cks
      end
)F";

const char* kTfft2 = R"F(
      program tfft2
c     FFT kernel: butterfly strides j*le + k are nonlinear in the symbolic
c     block size le (a multiplicative recurrence the stage loop keeps);
c     only the range test proves the block loop parallel.
      parameter (n = 4096, m = 12)
      real xr(n)
      integer le
      do i = 1, n
        xr(i) = mod(i*11, 127)*0.01
      end do
      le = 1
      do l = 1, m - 3
        le = le*2
        do j = 0, n/le - 1
          do k = 0, le/2 - 1
            xr(j*le + k + 1) = xr(j*le + k + 1)
     &        + xr(j*le + k + 1 + le/2)*0.5
            xr(j*le + k + 1 + le/2) = xr(j*le + k + 1)
     &        - xr(j*le + k + 1 + le/2)*0.25
          end do
        end do
      end do
      cks = 0.0
      do i = 1, n
        cks = cks + xr(i)
      end do
      print *, 'tfft2', cks
      end
)F";

const char* kTomcatv = R"F(
      program tomcatv
c     2D mesh generation: both compilers parallelize the relaxation, but
c     the 2-trip displacement loop inside the nest trips PFA's
c     restructuring into overhead (the paper's tomcatv observation).
      parameter (nx = 60, ny = 60, niter = 3)
      real x(nx, ny, 2), xn(nx, ny, 2)
      do j = 1, ny
        do i = 1, nx
          x(i, j, 1) = i*1.0 + mod(j, 5)*0.01
          x(i, j, 2) = j*1.0 + mod(i, 7)*0.01
        end do
      end do
      do it = 1, niter
        do j = 2, ny - 1
          do i = 2, nx - 1
            do d = 1, 2
              xn(i, j, d) = (x(i - 1, j, d) + x(i + 1, j, d)
     &          + x(i, j - 1, d) + x(i, j + 1, d))*0.25
            end do
          end do
        end do
        do j = 2, ny - 1
          do i = 2, nx - 1
            do d = 1, 2
              x(i, j, d) = xn(i, j, d)
            end do
          end do
        end do
      end do
      cks = 0.0
      do j = 1, ny
        do i = 1, nx
          cks = cks + x(i, j, 1) + x(i, j, 2)
        end do
      end do
      print *, 'tomcatv', cks
      end
)F";

const char* kTrfd = R"F(
      program trfd
c     quantum mechanics integral transformation: the paper's Figure 2 OLDA
c     kernel — induction substitution produces the nonlinear subscript
c     (i*(n**2+n) + j**2 - j)/2 + k + 1 that only the range test handles;
c     the baseline cannot substitute in the triangular nest at all.
      parameter (nv = 40, nmo = 8)
      real xrsiq(6240)
      integer x
      do i = 1, 6240
        xrsiq(i) = 0.0
      end do
      x = 0
      do i = 0, nmo - 1
        do j = 0, nv - 1
          do k = 0, j - 1
            x = x + 1
            xrsiq(x) = (i + 1)*0.5 + j*0.25 + k*0.125
     &        + (i + j)*0.0625 + (j + k)*0.03125 + (i + k + 2)*0.015625
          end do
        end do
      end do
      cks = 0.0
      do i = 1, 6240
        cks = cks + xrsiq(i)
      end do
      print *, 'trfd', cks
      end
)F";

const char* kWave5 = R"F(
      program wave5
c     particle-in-cell plasma code: the particle push parallelizes for
c     both; the scatter through the computed index is not a recognizable
c     reduction and the field recurrence is serial, so overall speedup
c     stays near 1 (as the paper reports for a few codes).
      parameter (np = 6000, ngrid = 800)
      real px(np), vx(np), e(ngrid), field(ngrid)
      dat1 = 0.5
      do i = 1, np
        px(i) = mod(i*17, ngrid)*1.0
        vx(i) = mod(i, 11)*0.1 - 0.5
      end do
      do i = 1, np
        px(i) = px(i) + vx(i)*0.5
        if (px(i) .lt. 0.0) px(i) = px(i) + 799.0
      end do
      do i = 1, ngrid
        e(i) = 0.0
      end do
      do i = 1, np
        ig = int(px(i)) + 1
        if (ig .gt. ngrid) ig = ngrid
        e(ig) = e(ig)*0.5 + dat1*0.125
      end do
      do i = 2, ngrid
        field(i) = field(i - 1)*0.5 + e(i)
      end do
      cks = 0.0
      do i = 1, ngrid
        cks = cks + field(i)
      end do
      print *, 'wave5', cks
      end
)F";

std::vector<BenchProgram> make_suite() {
  // Table 1 order, with the paper's lines-of-code and serial seconds.
  return {
      {"applu", "SPEC", 3870, 1203.0, "wavefront recurrence (serial)", kApplu},
      {"appsp", "SPEC", 4439, 1241.0, "short-trip blocks (PFA backfire)", kAppsp},
      {"arc2d", "PERFECT", 4694, 215.0, "array privatization", kArc2d},
      {"bdna", "PERFECT", 4887, 56.0, "gather/compress privatization (Fig 5)", kBdna},
      {"cmhog", "NCSA", 11826, 2333.0, "array privatization, symbolic bounds", kCmhog},
      {"cloud3d", "NCSA", 9813, 20404.0, "partial: privatization + recurrence", kCloud3d},
      {"flo52", "PERFECT", 2370, 38.0, "privatization + max reduction", kFlo52},
      {"hydro2d", "SPEC", 4292, 1474.0, "privatization + sum reduction", kHydro2d},
      {"mdg", "PERFECT", 1430, 178.0, "histogram reductions", kMdg},
      {"ocean", "PERFECT", 3288, 118.0, "range test with permutation (Fig 3)", kOcean},
      {"su2cor", "SPEC", 2332, 779.0, "sequential RNG recurrence", kSu2cor},
      {"swim", "SPEC", 429, 1106.0, "plain affine loops (both succeed)", kSwim},
      {"tfft2", "SPEC", 642, 946.0, "symbolic-stride range test", kTfft2},
      {"tomcatv", "SPEC", 190, 1327.0, "2-trip inner loop (PFA backfire)", kTomcatv},
      {"trfd", "PERFECT", 580, 20.0, "induction + range test (Fig 2)", kTrfd},
      {"wave5", "SPEC", 7764, 788.0, "opaque scatter + serial field (near 1)", kWave5},
  };
}

}  // namespace

const std::vector<BenchProgram>& benchmark_suite() {
  static const std::vector<BenchProgram> suite = make_suite();
  return suite;
}

const BenchProgram& suite_program(const std::string& name) {
  for (const BenchProgram& p : benchmark_suite())
    if (p.name == name) return p;
  p_assert_msg(false, "unknown suite program: " + name);
}

std::string combined_suite_source() {
  std::string src = "      program driver\n      end\n";
  for (const BenchProgram& bp : benchmark_suite()) {
    std::string body = bp.source;
    const std::string card = "program " + bp.name;
    std::size_t at = body.find(card);
    if (at != std::string::npos)
      body.replace(at, card.size(), "subroutine " + bp.name);
    src += body;
    if (!body.empty() && body.back() != '\n') src += '\n';
  }
  return src;
}

const char* const kTrackSource =
    "      program track\n"
    "      parameter (np = 2000, ninv = 20)\n"
    "      real dat(np), nf(np)\n"
    "      integer key(np), st(ninv)\n"
    "      data st /7, 11, 13, 17, 19, 23, 10, 29, 31, 37, 41, 43,\n"
    "     &  47, 49, 15, 53, 59, 61, 67, 71/\n"
    "      do i = 1, np\n"
    "        dat(i) = mod(i*3, 97)*0.01\n"
    "        nf(i) = 0.0\n"
    "      end do\n"
    "      do s = 1, ninv\n"
    "        do i = 1, np\n"
    "          key(i) = mod(i*st(s), np) + 1\n"
    "        end do\n"
    "        do i = 1, np\n"
    "          nf(key(i)) = nf(key(i))*0.25 + dat(i)*0.5\n"
    "     &      + dat(mod(i + s, np) + 1)*0.125\n"
    "     &      + dat(mod(i*3 + s, np) + 1)*0.0625\n"
    "     &      + (dat(i)*0.5 + 0.25)*(dat(i)*0.125 + 0.5)\n"
    "        end do\n"
    "      end do\n"
    "      cks = 0.0\n"
    "      do i = 1, np\n"
    "        cks = cks + nf(i)\n"
    "      end do\n"
    "      print *, 'track', cks\n"
    "      end\n";

}  // namespace polaris
