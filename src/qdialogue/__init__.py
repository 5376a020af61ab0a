"""Exact simulator of the two-way quantum dialogue protocol and attacks on it."""

from .adversary import (
    BELL_SUBSTITUTION,
    DISTURBANCE,
    MEASURE_RESEND,
    NONE,
    STRATEGIES,
    AdversaryChannel,
    EveReport,
    ProtocolOrderError,
)
from .bell_core import (
    ALL_CODES,
    ALL_INDICES,
    BellIndex,
    PauliCode,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_state,
    decode_bits,
    measure_computational,
    overlap,
    random_code,
)
from .harness import (
    ConfigurationError,
    OracleResult,
    RunConfig,
    RunSummary,
    TranscriptFormatError,
    codes_to_text,
    delivered_codes,
    exact_oracle,
    iter_rounds,
    parse_transcript_line,
    run_sessions,
    summarize,
    text_to_codes,
    transcript_to_line,
    write_summary,
    write_transcripts,
)
from .protocol import (
    MODIFIED,
    ORIGINAL,
    PROTOCOLS,
    Announcement,
    Mode,
    RoundTranscript,
    cm_check,
    round_key,
    run_round_modified,
    run_round_original,
)

__version__ = "0.3.0"
