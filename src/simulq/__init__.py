"""Exact simulation of locked dense coding and simultaneous teleportation.

Small dense-vector engine (``qlinalg``), the gates and entangled resource
states the protocols use (``gates``, ``states``), projective measurement in
orthonormal families (``measurement``), the protocol pipelines themselves
(``protocols``), and exhaustive verification of the locking claims
(``analysis``).
"""

__version__ = "0.1.0"
