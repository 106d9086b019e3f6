"""Step-by-step planar track integrator, the reference for integrate_track."""
from __future__ import annotations

import math

import numpy as np

_WZ_EPS = 1e-12


def integrate_track(vx, vy, wz, dt, x0=0.0, y0=0.0, theta0=0.0):
    """Integrate a piecewise-constant planar twist sequence.

    Each step holds the body twist (vx[i], vy[i], wz[i]) constant for dt
    seconds and advances the pose along the exact constant-twist arc.
    Returns (x, y, theta) arrays of length n + 1 including the start pose.
    """
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    wz = np.asarray(wz, dtype=np.float64)
    n = vx.shape[0]
    if vy.shape[0] != n or wz.shape[0] != n:
        raise ValueError("twist component arrays must have equal length")
    x = np.empty(n + 1)
    y = np.empty(n + 1)
    theta = np.empty(n + 1)
    x[0], y[0], theta[0] = x0, y0, theta0
    cx, cy, cth = x0, y0, theta0
    for i in range(n):
        w = wz[i]
        dth = w * dt
        if abs(w) < _WZ_EPS:
            dxb = vx[i] * dt
            dyb = vy[i] * dt
        else:
            s = math.sin(dth) / w
            c = (1.0 - math.cos(dth)) / w
            dxb = vx[i] * s - vy[i] * c
            dyb = vx[i] * c + vy[i] * s
        cos_t = math.cos(cth)
        sin_t = math.sin(cth)
        cx += cos_t * dxb - sin_t * dyb
        cy += sin_t * dxb + cos_t * dyb
        cth += dth
        x[i + 1], y[i + 1], theta[i + 1] = cx, cy, cth
    return x, y, theta
