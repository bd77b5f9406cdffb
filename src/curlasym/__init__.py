"""Exact symbol calculus for the spectral asymmetry of curl, plus numerics.

Subpackage layout:

- exactpoly, polymat: exact Gaussian-rational truncated polynomials and
  matrices of them.
- configs: the curvature input (CurvatureConfig, its validator, common
  denominator and Ricci-flat test, the orientation symbol EPSILON), named
  unit configurations and random ones; imports only exactpoly.
- geometry: curvature-seeded metric jets, norm power jets (plain
  TruncatedPoly values), curl and d / delta symbols, parallel transport jets.
- calculus: graded symbol jets, composition, subprincipal symbol, Poisson
  bracket (a plain Matrix), adjoint, trace, transport corrections.
- projections: the iterative spectral projection construction, its
  verification, and the asymmetry report.
- altderiv: independent route to the principal asymmetry value through the
  Hodge Laplacian symbol hierarchy.
- berger: Berger-sphere curl and Laplacian spectra, eta function numerics.
- kernel: modified Bessel kernel checks and the singular asymmetry
  coefficient on the sphere; needs configs and polymat only.
- cli: command-line entry point.
"""

from __future__ import annotations

__version__ = "0.1.0"
