"""Desk-scale movable-antenna measurement campaigns, simulated end to end.

Synthesizes multipath IQ captures over a planar positioning region, runs
the single-bin DFT tone power meter and the OFDM channel sounder on them,
and drives the two-stage (simulate coarse, measure fine) antenna placement
scheme.
"""

from .channel import (
    DbMap,
    GainMap,
    MovementRegion,
    PathComponent,
    PathStateInfo,
    Position,
    channel_response,
    gain_map,
    to_db,
)
from .estimator import (
    AngleGrid,
    DegenerateGeometryError,
    EstimatedPath,
    EstimatedPsi,
    PasMatrix,
    PdsMatrix,
    SoundingCampaign,
    compute_pas,
    compute_pds,
    estimate_psi,
    find_paths,
    zf_weights,
)
from .harness import (
    CampaignManifest,
    CompareReport,
    ConfigError,
    ScenarioConfig,
    StageError,
    build_sounding_campaign,
    compare_maps,
    load_campaign,
    load_psi,
    load_sounding_campaign,
    measure_campaign,
    run_pipeline,
    save_psi,
    synthesize_campaign,
)
from .mover import (
    MoveAborted,
    MoveResult,
    SimulatedSlideTrack,
    brute_force_best,
    coarse_position,
    optimize,
    refine,
)
from .powermeter import PowerMeasurement, measure_power, sweep_measure
from .presets import hall_psi_3p5ghz, hall_psi_27p5ghz, scenario_3p5ghz, scenario_27p5ghz
from .signals import (
    NoiseSpec,
    OfdmNumerology,
    add_noise,
    apply_channel,
    derive_seed,
    gen_tone,
    qpsk_symbols,
    read_iq_record,
    write_iq_record,
)

__version__ = "0.1.0"
