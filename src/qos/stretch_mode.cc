#include "qos/stretch_mode.h"

namespace stretch
{

const char *
toString(StretchMode mode)
{
    switch (mode) {
    case StretchMode::Baseline:
        return "Baseline";
    case StretchMode::BatchBoost:
        return "B-mode";
    case StretchMode::QosBoost:
        return "Q-mode";
    }
    return "?";
}

} // namespace stretch
