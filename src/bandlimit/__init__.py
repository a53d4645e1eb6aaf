"""bandlimit: constructive sampling and differentiation for bandlimited
signals, with operator-group extensions and a discrete-Hilbert-transform
instance."""

__version__ = "0.1.0"

from .errors import (
    ReconstructionUnsoundError,
    ToleranceError,
)
from .sinckernel import (
    coefficient_tail_bound,
    sinc,
    sinc_derivative,
    sinc_derivative_grid,
)
from .sampling import (
    BandlimitedFn,
    UniformSamples,
    make_reference,
    riesz_trig_derivative,
    valiron_tschakaloff_eval,
    wks_eval,
    wks_eval_grid,
    wks_tail_bound,
)
from .boas import (
    bernstein_ratio,
    boas_derivative,
    boas_derivative_fast,
)
from .inequalities import (
    discrete_norm,
    embedding_constant,
    favard_constant,
    lks_check,
    lks_constant,
    plancherel_polya_check,
)
from .grouporbit import (
    BernsteinVector,
    GroupInstance,
    OrbitSamples,
    exponential_type,
    group_boas,
    orbit_reconstruct,
    orbit_vt,
    recover_initial,
    rotation_instance,
)
from .dht import (
    SeqWindow,
    dht_instance,
    dht_power,
    hilbert_apply,
    hilbert_group,
    integer_orbit,
    pairing_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
