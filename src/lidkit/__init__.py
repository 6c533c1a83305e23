"""Spoken language identification built from first principles.

Pipeline: WAV decoding -> 40-bin log-mel (MFSC) features -> a residual
encoder of 1D time-channel separable convolutions -> self-attentive
pooling -> linear classifier trained with cross-entropy, SGD and a
cosine-annealed learning rate.  Every layer ships its own analytic
backward pass, verified against finite differences.
"""
