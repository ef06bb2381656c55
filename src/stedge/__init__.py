"""stedge: spatial-temporal edge-enhanced graph networks for pedestrian
trajectory forecasting.

The library turns observed trajectories into overlapping unified
(pedestrian, time) patch graphs, runs attention over nodes and a
Hodge-Laplacian Laguerre spectral convolution over the line graph of each
patch, fuses both into tokens, and forecasts per-step bivariate Gaussian
displacements with a transformer encoder.  Everything differentiable runs
on the small reverse-mode engine in :mod:`stedge.autodiff`.

Importing the package sets two glibc malloc thresholds for the process
(``M_MMAP_THRESHOLD`` to 32 MiB, then ``M_TRIM_THRESHOLD`` to 2**31 - 1),
so the heap a window's temporaries have used is kept and reused instead of
returned to the kernel and page-faulted back in by the next window.
Resident memory stays at the peak a window reaches instead of falling
between windows.  On a C library without ``mallopt`` nothing is set.
"""

from stedge.autodiff import (
    DisconnectedOutputError,
    NonFiniteError,
    ParameterStore,
    ShapeMismatchError,
    Tensor,
    backward,
    gradcheck,
)
from stedge.data import (
    DuplicateObservationError,
    EmptyFileError,
    MalformedLineError,
    TrajectoryScene,
    Window,
    build_windows,
    init_features,
    parse_trajectory_file,
)
from stedge.model import (
    ModelConfig,
    TrajectoryForecaster,
    WindowTooLargeError,
    init_parameters,
)
from stedge.predictor import GaussianTrack, sample_trajectories
from stedge.trainer import TrainConfig, ade_fde, best_of_k_eval, train

__version__ = "0.1.0"
