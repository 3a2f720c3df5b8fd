"""Character-level encoder-decoder architectures."""

from .config import ARCHITECTURES, LSTM_ARCHITECTURES, ModelConfig
from .lstm import LSTMSeq2Seq, LSTMState
from .model import build_model, count_parameters
from .transformer import TransformerSeq2Seq, TransformerState, causal_mask, positional_encoding

__all__ = [
    "ARCHITECTURES",
    "LSTM_ARCHITECTURES",
    "LSTMSeq2Seq",
    "LSTMState",
    "ModelConfig",
    "TransformerSeq2Seq",
    "TransformerState",
    "build_model",
    "causal_mask",
    "count_parameters",
    "positional_encoding",
]
