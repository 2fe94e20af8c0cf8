"""Riemannian automatic differentiation for fixed-rank matrices and TT tensors."""

from .ad import Tape, Var, contract, grad, record, stop_gradient
from .dense import as_tensor, qr_thin, svd_thin
from .errors import (
    DegeneratePointError,
    DimensionError,
    FormatError,
    InvalidDataError,
    InvalidPairError,
    InvalidTangentError,
    InvalidVariableError,
    NonFiniteError,
    OversizeError,
    TtriemError,
    UnavailableMethodError,
    UnsupportedOperationError,
)
from .matrix import (
    FixedRankPoint,
    MatrixTangent,
    hess_vec_matrix,
    project_matrix,
    riemannian_grad_matrix,
    tangent_dot_matrix,
    tangent_materialize,
)
from .objectives import (
    IndexSet,
    Objective,
    completion_loss,
    expmachines_loss,
    gram_quadratic_form,
    quadratic_form,
    rayleigh_quotient,
    read_index_set,
    regularized_completion,
    write_index_set,
)
from .tt import (
    MuOrthogonal,
    TtMatrix,
    TtTensor,
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_axpy,
    tt_dot,
    tt_entries,
    tt_norm,
    tt_read,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_weighted_sum,
    tt_write,
    ttmat_apply,
    ttmat_identity,
    ttmat_read,
    ttmat_to_dense,
    ttmat_transpose,
    ttmat_write,
)
from .ttmanifold import (
    TtTangent,
    deltas_to_cores,
    hess_vec_tt,
    point_as_tangent,
    preconditioned_residual,
    project_tt,
    riemannian_grad_tt,
    riemannian_value_and_grad_tt,
    tangent_axpy,
    tangent_dot_tt,
    tangent_scale,
    zero_tangent,
)

__version__ = "0.1.0"
