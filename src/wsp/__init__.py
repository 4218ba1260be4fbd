"""Contrastive pretraining with a composite kernel over weak labels and slice
depth, plus the full pretrain / linear-probe / evaluation pipeline at desk
scale."""
