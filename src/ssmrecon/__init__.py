"""Shape-space construction and slice-guided 3D organ reconstruction.

Pipeline: register a mesh population to shared topology, fit a PCA shape
space, rasterize planar cross-section masks, train a small regressor from
masks to shape parameters, reconstruct subject meshes and report volumes
with paired statistics.
"""

__version__ = "0.1.0"
