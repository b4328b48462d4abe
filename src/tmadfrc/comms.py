"""Constellations and the one-way communication link.

The receiver protocol is fixed by the intended user: equalize by the known
fundamental array gain in the steered direction, then slice to the nearest
constellation point (rail by rail, which is the same on a square grid).  A
receiver in the steered direction sees exactly the transmitted constellation
plus noise; anywhere else the harmonic mixture both rotates the fundamental
and superimposes inter-subcarrier leakage, neither of which the fixed
protocol can undo.  :func:`ber_vs_angle` measures the resulting bit error
rate per direction — the security figure of merit.  The probe equalizes the
alphabet instead of the received frame: it modulates onto the points divided
by the fundamental, which by linearity is the same receiver without a
division per received symbol.

SNR is defined per receiver direction (noise scaled to the locally received
signal power), which models the strongest eavesdropper: perfect gain control
and the same operating SNR as the intended user.
"""

import dataclasses
import math

import numpy as np

from .model import SystemConfig, check_integer, snr_adds_noise
from .tma import SwitchingPattern, element_gains, scramble_symbols


def _gray_square_grid(bits: int) -> np.ndarray:
    """Points of the per-rail Gray square grid with ``bits`` bits per symbol,
    in units of half the rail spacing, indexed by label.

    Each rail carries half the bits: rail position j in [0, L) maps to
    amplitude (L - 1) - 2j under Gray label j ^ (j >> 1); the label's high
    half picks the real rail, its low half the imaginary rail.
    """
    side = 1 << (bits // 2)
    j = np.arange(side)
    amplitude = np.empty(side)
    amplitude[j ^ (j >> 1)] = (side - 1) - 2 * j  # index by Gray label
    label = np.arange(1 << bits)
    return amplitude[label >> (bits // 2)] + 1j * amplitude[label & (side - 1)]


def _rail_unit(points: np.ndarray, bits: int) -> float:
    """Half the rail spacing of a per-rail Gray square grid: label 0 sits at
    (L - 1)(1 + 1j) units."""
    return float(points[0].real) / ((1 << (bits // 2)) - 1)


@dataclasses.dataclass(frozen=True)
class Constellation:
    """Symbol alphabet with per-rail Gray labeling.

    ``points`` must be the per-rail Gray square grid of ``square_qam`` at some
    positive scale: the real part indexed by ``label >> (bits_per_symbol / 2)``
    and the imaginary part by ``label & (side - 1)`` on one shared, evenly
    spaced rail.  :func:`demodulate` slices each rail on its own and relies on
    this layout, so any other alphabet raises ``ValueError``.
    """

    name: str
    points: np.ndarray  # (2**bits_per_symbol,) complex, indexed by bit label
    bits_per_symbol: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128)
        bits = self.bits_per_symbol
        if points.ndim != 1 or points.size != 1 << bits:
            raise ValueError(f"{self.name}: need {1 << bits} points, got {points.shape}")
        unit = _rail_unit(points, bits) if bits >= 2 and bits % 2 == 0 else math.nan
        if not (
            0.0 < unit < math.inf
            and np.allclose(points, unit * _gray_square_grid(bits), rtol=0.0, atol=1e-9 * unit)
        ):
            raise ValueError(f"{self.name}: points are not a per-rail Gray square grid")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)


def square_qam(order: int) -> Constellation:
    """Gray-labeled square QAM normalized to unit average power.

    Horizontally or vertically adjacent points differ in exactly one bit (see
    :func:`_gray_square_grid` for the labeling).
    """
    side = math.isqrt(order)
    if side * side != order or side < 2 or side & (side - 1):
        raise ValueError(f"order must be an even power of two >= 4, got {order}")
    bits = order.bit_length() - 1
    points = _gray_square_grid(bits) / math.sqrt(2.0 * (side * side - 1) / 3.0)
    name = "QPSK" if order == 4 else f"{order}-QAM"
    return Constellation(name=name, points=points, bits_per_symbol=bits)


def qpsk() -> Constellation:
    return square_qam(4)


def _labels(bits: np.ndarray, k: int) -> np.ndarray:
    """Labels of the checked 0/1 ``bits`` read ``k`` at a time, MSB first, in
    the smallest unsigned dtype that holds k bits: uint8 up to 256-QAM."""
    columns = bits.reshape(-1, k).astype(np.min_scalar_type((1 << k) - 1), copy=False)
    labels = columns[:, 0] << (k - 1)
    for m in range(1, k):
        labels |= columns[:, m] << (k - 1 - m)
    return labels


def modulate(bits, constellation: Constellation) -> np.ndarray:
    """Bit stream (multiple of bits_per_symbol long, MSB first) to symbols."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    k = constellation.bits_per_symbol
    if bits.size % k:
        raise ValueError(f"bit count {bits.size} is not a multiple of {k}")
    # take is faster than indexing by a uint8 array
    return constellation.points.take(_labels(bits, k))


def demodulate(symbols, constellation: Constellation) -> np.ndarray:
    """Nearest-point slicing back to the bit stream (MSB first), rail by rail.

    On a square grid the nearest point is the nearest position on each rail,
    and a rail's Gray bits follow from folding.  With the rail value y in
    units of half the rail spacing (positions at +-1, +-3, ..., +-(L - 1)),
    bit 0 is ``y < 0``; then y becomes |y|, bit m is ``y < L / 2**m`` and y
    folds to |y - L / 2**m| before the next bit.  The interleaved float view
    (re, im, re, ...) decides both rails in one pass, in MSB-first order.

    A rail exactly on a decision boundary goes to the lower label, as the
    first minimum of an argmin over the labels does: for QPSK a rail of +0.0
    or -0.0 gives bit 0.
    """
    rails = np.asarray(symbols, dtype=np.complex128).ravel().view(np.float64)
    half = constellation.bits_per_symbol // 2
    bits = np.empty((rails.size, half), dtype=np.uint8)
    np.less(rails, 0.0, out=bits[:, 0])
    if half > 1:
        folded = np.abs(rails) / _rail_unit(constellation.points, constellation.bits_per_symbol)
        threshold = float(1 << (half - 1))
        for m in range(1, half):
            np.less(folded, threshold, out=bits[:, m])
            folded = np.abs(folded - threshold)
            threshold /= 2.0
    return bits.reshape(-1)


def ber(sent_bits, received_bits) -> float:
    """Share of differing bits: the exact count over the length, which is
    ``np.mean(sent != got)`` bit for bit without its float pass."""
    sent = np.asarray(sent_bits).ravel()
    got = np.asarray(received_bits).ravel()
    if sent.shape != got.shape:
        raise ValueError(f"bit streams differ in length: {sent.size} vs {got.size}")
    if not sent.size:
        raise ValueError("bit streams are empty")
    return np.count_nonzero(sent != got) / sent.size


# Floats of noise drawn per block by add_noise: 512 KB, a reused buffer
# instead of a temporary the size of the grid.
_NOISE_BLOCK = 65_536


def add_noise(out: np.ndarray, sigma2: float, rng: np.random.Generator) -> None:
    """Add complex white Gaussian noise of power ``sigma2`` to ``out`` in place.

    Draws the real block, then the imaginary block, from ``rng``: the same
    stream, and so the same bits, as ``sqrt(sigma2 / 2) * (N1 + 1j * N2)``
    with two successive ``standard_normal(out.shape)`` draws.  Each block is
    drawn 65 536 floats at a time through one reused buffer.

    Raises:
        ValueError: for a ``sigma2`` that is negative or not finite, or an
            ``out`` that is not C-contiguous, before anything is drawn.
    """
    if not 0.0 <= sigma2 < math.inf:  # NaN too
        raise ValueError(f"noise power must be finite and >= 0, got {sigma2!r}")
    if not out.flags.c_contiguous:
        raise ValueError("add_noise needs a C-contiguous array")
    scale = np.sqrt(sigma2 / 2.0)
    flat = out.reshape(-1)  # a view, since out is contiguous
    buf = np.empty(min(flat.size, _NOISE_BLOCK))
    for rail in (flat.real, flat.imag):
        for start in range(0, flat.size, _NOISE_BLOCK):
            chunk = buf[: min(_NOISE_BLOCK, flat.size - start)]
            rng.standard_normal(out=chunk)
            chunk *= scale
            rail[start : start + chunk.size] += chunk


def _mean_power(x: np.ndarray) -> float:
    """Mean |x|^2 of a non-empty complex array as ``vdot(x, x).real / x.size``:
    one pass, no array of magnitudes."""
    return float(np.vdot(x, x).real / x.size)


def _add_noise_at_snr(out: np.ndarray, snr_db: float, rng: np.random.Generator) -> None:
    """Add noise to the C-contiguous complex ``out`` in place at ``snr_db``
    relative to its own mean power (see :func:`add_noise`).  At +inf, or on an
    empty ``out``, nothing is added or drawn; NaN and -inf raise
    ``ValueError``."""
    if snr_adds_noise(snr_db) and out.size:
        add_noise(out, _mean_power(out) / 10.0 ** (snr_db / 10.0), rng)


def awgn(signal: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """A noisy copy of ``signal``: complex white Gaussian noise at the given
    SNR relative to its mean power (see :func:`add_noise`).  At +inf the copy
    is noise-free, and an empty signal comes back empty with ``rng``
    untouched; NaN and -inf raise ``ValueError``."""
    out = np.array(signal, dtype=np.complex128)
    _add_noise_at_snr(out, snr_db, rng)
    return out


def qpsk_awgn_ber(snr_db: float) -> float:
    """Theoretical Gray-QPSK bit error rate on an AWGN channel at symbol SNR
    ``snr_db``: Q(sqrt(SNR)), 0 at +inf.  Other SNRs that name no noise level
    (:func:`model.snr_adds_noise`) raise ``ValueError``."""
    snr_adds_noise(snr_db)
    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(snr / 2.0))


def link_ber(
    cfg: SystemConfig,
    pattern: SwitchingPattern,
    constellation: Constellation,
    theta_deg: float,
    snr_db: float | None = None,
    num_symbols: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Bit error rate of the fixed receiver protocol in one direction.

    Random payload bits are scrambled toward ``theta_deg`` and noise is added
    at the per-direction SNR before slicing.  The equalization by the
    fundamental gain of the steered direction is applied to the alphabet, not
    to the frame: the payload is modulated onto ``constellation.points /
    fundamental``, and by linearity mixing that equals mixing the payload and
    dividing every received symbol by the fundamental.  The noise is drawn at
    the SNR of this equalized frame, which is the noise of the divided frame
    in distribution, not in realization.  The probe is one array: the
    scrambled frame takes the noise in place.

    Seed map: the payload is the first ``ceil(n / 8)`` bytes of ``rng``
    (``rng.bytes``) unpacked MSB first and cut to the n payload bits; the
    noise follows on the same stream (see :func:`add_noise`).

    Raises:
        ValueError: for a direction that is not finite, lies outside
            [-90, 90] deg or is not a scalar, an SNR of NaN or -inf, or a
            symbol count that is not a positive integer (a bool is none) or
            does not fill whole OFDM symbols.
    """
    if np.ndim(theta_deg):
        raise ValueError(f"link_ber probes one direction, got shape {np.shape(theta_deg)}")
    if rng is None:
        rng = np.random.default_rng(0)
    snr = cfg.snr_db if snr_db is None else snr_db
    count = cfg.num_subcarriers * cfg.num_ofdm_symbols if num_symbols is None else num_symbols
    check_integer(count, 1, "num_symbols")
    if count % cfg.num_subcarriers:
        raise ValueError(
            f"num_symbols must fill whole OFDM symbols "
            f"(multiples of {cfg.num_subcarriers}), got {count}"
        )
    k = constellation.bits_per_symbol
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-count * k // 8)), np.uint8), count=count * k)
    # modulate onto the equalized alphabet, shaped as the grid by the labels:
    # the alphabet and the labels die before the scramble product, the
    # payload grid as soon as it returns
    symbols = (constellation.points / element_gains(pattern, cfg, cfg.cu_angle_deg).sum()).take(
        _labels(bits, k).reshape(cfg.num_subcarriers, -1)
    )
    received = scramble_symbols(symbols, pattern, cfg, theta_deg)
    del symbols
    _add_noise_at_snr(received, snr, rng)
    return ber(bits, demodulate(received, constellation))


def ber_vs_angle(
    cfg: SystemConfig,
    pattern: SwitchingPattern,
    constellation: Constellation,
    angles_deg,
    snr_db: float | None = None,
    num_symbols: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """BER of the fixed protocol at each probe direction.

    Every position in ``angles_deg`` gets an independent child RNG stream
    spawned from ``seed``, so appending probes never changes the payload or
    noise of the probes already in the list.

    Raises:
        ValueError: for angles with more than one axis, or whatever
            :func:`link_ber` refuses.
    """
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if angles.ndim > 1:
        raise ValueError(f"angles must be a scalar or a 1-D array, got shape {angles.shape}")
    children = np.random.SeedSequence(seed).spawn(angles.size)
    return np.array(
        [
            link_ber(
                cfg,
                pattern,
                constellation,
                float(angle),
                snr_db=snr_db,
                num_symbols=num_symbols,
                rng=np.random.default_rng(child),
            )
            for angle, child in zip(angles, children)
        ]
    )
